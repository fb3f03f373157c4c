// Package openflow implements a compact binary wire codec for the
// subset of OpenFlow 1.3 the controller simulator speaks: hello/echo,
// features, flow-mod, packet-in/out, flow-removed, port-status, and
// error messages. The framing (version/type/length/xid header, big-
// endian fields) follows the OpenFlow specification; match and action
// structures use fixed layouts rather than full OXM TLVs, which is all
// the simulated dataplane requires.
//
// Decode, ReadMessage and WriteMessage allocate a fresh frame or
// message per call, and the caller owns the result. Two calls are
// allocation-free in steady state: AppendEncode frames into a
// caller-provided buffer (a nil one gives a fresh frame), and a Codec
// decodes zero-copy into reusable per-type message scratch whose
// payload fields alias the input frame.
// The batched read path (ofconn.FrameReader) is built on the Codec.
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version byte (OpenFlow 1.3).
const Version = 0x04

// MsgType identifies a message type.
type MsgType uint8

// Message types (values follow the OpenFlow 1.3 numbering).
const (
	TypeHello         MsgType = 0
	TypeError         MsgType = 1
	TypeEchoRequest   MsgType = 2
	TypeEchoReply     MsgType = 3
	TypeFeaturesReq   MsgType = 5
	TypeFeaturesReply MsgType = 6
	TypePacketIn      MsgType = 10
	TypeFlowRemoved   MsgType = 11
	TypePortStatus    MsgType = 12
	TypePacketOut     MsgType = 13
	TypeFlowMod       MsgType = 14
	TypeRoleRequest   MsgType = 24
	TypeRoleReply     MsgType = 25
)

func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeError:
		return "error"
	case TypeEchoRequest:
		return "echo-request"
	case TypeEchoReply:
		return "echo-reply"
	case TypeFeaturesReq:
		return "features-request"
	case TypeFeaturesReply:
		return "features-reply"
	case TypePacketIn:
		return "packet-in"
	case TypeFlowRemoved:
		return "flow-removed"
	case TypePortStatus:
		return "port-status"
	case TypePacketOut:
		return "packet-out"
	case TypeFlowMod:
		return "flow-mod"
	case TypeRoleRequest:
		return "role-request"
	case TypeRoleReply:
		return "role-reply"
	default:
		return fmt.Sprintf("type-%d", uint8(t))
	}
}

// Codec errors.
var (
	ErrBadVersion = errors.New("openflow: unsupported version")
	ErrTruncated  = errors.New("openflow: truncated message")
	ErrBadType    = errors.New("openflow: unknown message type")
	ErrOversized  = errors.New("openflow: message too large")
)

// headerLen is the fixed OpenFlow header size.
const headerLen = 8

// MaxFrameLen caps a frame's total length: the 16-bit header length
// field's range, which also bounds how much ReadMessage will ever
// allocate or read for one frame.
const MaxFrameLen = 0xffff

// Message is any wire message.
type Message interface {
	// Type returns the message's wire type.
	Type() MsgType
	// appendBody appends the body (everything after the header) to dst
	// and returns the extended slice.
	appendBody(dst []byte) []byte
	// decodeBody parses the body. With zeroCopy set, payload byte
	// slices alias b instead of being copied; the caller owns the
	// aliasing hazard (Codec.Decode does).
	decodeBody(b []byte, zeroCopy bool) error
}

// Match selects packets; zero fields are wildcards except InPort,
// which matches port 0 only when MatchInPort is set.
type Match struct {
	MatchInPort bool
	InPort      uint32
	EthSrc      uint64 // 48-bit MAC in the low bits; 0 = wildcard
	EthDst      uint64
	EthType     uint16 // 0 = wildcard
	VlanID      uint16 // 0 = wildcard
}

const matchLen = 1 + 4 + 8 + 8 + 2 + 2

func (m Match) append(dst []byte) []byte {
	var flag byte
	if m.MatchInPort {
		flag = 1
	}
	dst = append(dst, flag)
	dst = binary.BigEndian.AppendUint32(dst, m.InPort)
	dst = binary.BigEndian.AppendUint64(dst, m.EthSrc)
	dst = binary.BigEndian.AppendUint64(dst, m.EthDst)
	dst = binary.BigEndian.AppendUint16(dst, m.EthType)
	return binary.BigEndian.AppendUint16(dst, m.VlanID)
}

func decodeMatch(b []byte) (Match, []byte, error) {
	if len(b) < matchLen {
		return Match{}, nil, ErrTruncated
	}
	m := Match{
		MatchInPort: b[0] == 1,
		InPort:      binary.BigEndian.Uint32(b[1:5]),
		EthSrc:      binary.BigEndian.Uint64(b[5:13]),
		EthDst:      binary.BigEndian.Uint64(b[13:21]),
		EthType:     binary.BigEndian.Uint16(b[21:23]),
		VlanID:      binary.BigEndian.Uint16(b[23:25]),
	}
	return m, b[matchLen:], nil
}

// ActionType identifies a flow action.
type ActionType uint16

// Action types.
const (
	ActionOutput  ActionType = 1
	ActionSetVlan ActionType = 2
	ActionDrop    ActionType = 3
)

// Action is one instruction applied to matching packets.
type Action struct {
	Type ActionType
	// Port is the output port for ActionOutput (PortFlood floods).
	Port uint32
	// Vlan is the tag for ActionSetVlan.
	Vlan uint16
}

// PortFlood is the pseudo-port that floods to all ports but ingress.
const PortFlood = 0xfffffffb

// PortController is the pseudo-port that punts to the controller.
const PortController = 0xfffffffd

const actionLen = 2 + 4 + 2

func (a Action) append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(a.Type))
	dst = binary.BigEndian.AppendUint32(dst, a.Port)
	return binary.BigEndian.AppendUint16(dst, a.Vlan)
}

func decodeAction(b []byte) (Action, []byte, error) {
	if len(b) < actionLen {
		return Action{}, nil, ErrTruncated
	}
	a := Action{
		Type: ActionType(binary.BigEndian.Uint16(b[0:2])),
		Port: binary.BigEndian.Uint32(b[2:6]),
		Vlan: binary.BigEndian.Uint16(b[6:8]),
	}
	return a, b[actionLen:], nil
}

// takeBytes fills *dst with b: zero-copy (the Codec) aliases b
// directly; otherwise (the allocating Decode, always into a fresh
// message) b is copied, and an empty b leaves *dst nil.
func takeBytes(dst *[]byte, b []byte, zeroCopy bool) {
	if zeroCopy {
		*dst = b
		return
	}
	*dst = append((*dst)[:0], b...)
}

// takeActions decodes n actions from rest into *dst, reusing *dst's
// capacity, and returns the remaining bytes.
func takeActions(dst *[]Action, n int, rest []byte) ([]byte, error) {
	*dst = (*dst)[:0]
	for i := 0; i < n; i++ {
		a, r, err := decodeAction(rest)
		if err != nil {
			return nil, err
		}
		*dst = append(*dst, a)
		rest = r
	}
	return rest, nil
}

// Hello opens a connection.
type Hello struct{}

// Type implements Message.
func (Hello) Type() MsgType                  { return TypeHello }
func (Hello) appendBody(dst []byte) []byte   { return dst }
func (*Hello) decodeBody([]byte, bool) error { return nil }

// EchoRequest is a liveness probe.
type EchoRequest struct{ Data []byte }

// Type implements Message.
func (EchoRequest) Type() MsgType                  { return TypeEchoRequest }
func (e EchoRequest) appendBody(dst []byte) []byte { return append(dst, e.Data...) }
func (e *EchoRequest) decodeBody(b []byte, zc bool) error {
	takeBytes(&e.Data, b, zc)
	return nil
}

// EchoReply answers an EchoRequest.
type EchoReply struct{ Data []byte }

// Type implements Message.
func (EchoReply) Type() MsgType                  { return TypeEchoReply }
func (e EchoReply) appendBody(dst []byte) []byte { return append(dst, e.Data...) }
func (e *EchoReply) decodeBody(b []byte, zc bool) error {
	takeBytes(&e.Data, b, zc)
	return nil
}

// FeaturesRequest asks a switch for its datapath description.
type FeaturesRequest struct{}

// Type implements Message.
func (FeaturesRequest) Type() MsgType                  { return TypeFeaturesReq }
func (FeaturesRequest) appendBody(dst []byte) []byte   { return dst }
func (*FeaturesRequest) decodeBody([]byte, bool) error { return nil }

// FeaturesReply describes a datapath.
type FeaturesReply struct {
	DatapathID uint64
	NumPorts   uint32
}

// Type implements Message.
func (FeaturesReply) Type() MsgType { return TypeFeaturesReply }
func (f FeaturesReply) appendBody(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, f.DatapathID)
	return binary.BigEndian.AppendUint32(dst, f.NumPorts)
}
func (f *FeaturesReply) decodeBody(b []byte, _ bool) error {
	if len(b) < 12 {
		return ErrTruncated
	}
	f.DatapathID = binary.BigEndian.Uint64(b[:8])
	f.NumPorts = binary.BigEndian.Uint32(b[8:12])
	return nil
}

// PacketIn punts a packet to the controller.
type PacketIn struct {
	DatapathID uint64
	InPort     uint32
	// Reason: 0 = no match, 1 = action.
	Reason uint8
	Data   []byte
}

// Type implements Message.
func (PacketIn) Type() MsgType { return TypePacketIn }
func (p PacketIn) appendBody(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, p.DatapathID)
	dst = binary.BigEndian.AppendUint32(dst, p.InPort)
	dst = append(dst, p.Reason)
	return append(dst, p.Data...)
}
func (p *PacketIn) decodeBody(b []byte, zc bool) error {
	if len(b) < 13 {
		return ErrTruncated
	}
	p.DatapathID = binary.BigEndian.Uint64(b[:8])
	p.InPort = binary.BigEndian.Uint32(b[8:12])
	p.Reason = b[12]
	takeBytes(&p.Data, b[13:], zc)
	return nil
}

// PacketOut injects a packet into the dataplane.
type PacketOut struct {
	DatapathID uint64
	InPort     uint32
	Actions    []Action
	Data       []byte
}

// Type implements Message.
func (PacketOut) Type() MsgType { return TypePacketOut }
func (p PacketOut) appendBody(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, p.DatapathID)
	dst = binary.BigEndian.AppendUint32(dst, p.InPort)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Actions)))
	for _, a := range p.Actions {
		dst = a.append(dst)
	}
	return append(dst, p.Data...)
}
func (p *PacketOut) decodeBody(b []byte, zc bool) error {
	if len(b) < 14 {
		return ErrTruncated
	}
	p.DatapathID = binary.BigEndian.Uint64(b[:8])
	p.InPort = binary.BigEndian.Uint32(b[8:12])
	n := int(binary.BigEndian.Uint16(b[12:14]))
	rest := b[14:]
	// Reject a hostile action count up front instead of iterating into
	// the shortage: the declared actions must fit the remaining body.
	if n*actionLen > len(rest) {
		return ErrTruncated
	}
	rest, err := takeActions(&p.Actions, n, rest)
	if err != nil {
		return err
	}
	takeBytes(&p.Data, rest, zc)
	return nil
}

// FlowModCommand selects add/delete semantics.
type FlowModCommand uint8

// Flow-mod commands.
const (
	FlowAdd FlowModCommand = iota
	FlowDelete
)

// FlowMod installs or removes a flow entry.
type FlowMod struct {
	DatapathID  uint64
	Command     FlowModCommand
	Priority    uint16
	IdleTimeout uint16
	Match       Match
	Actions     []Action
}

// Type implements Message.
func (FlowMod) Type() MsgType { return TypeFlowMod }
func (f FlowMod) appendBody(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, f.DatapathID)
	dst = append(dst, byte(f.Command))
	dst = binary.BigEndian.AppendUint16(dst, f.Priority)
	dst = binary.BigEndian.AppendUint16(dst, f.IdleTimeout)
	dst = f.Match.append(dst)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Actions)))
	for _, a := range f.Actions {
		dst = a.append(dst)
	}
	return dst
}
func (f *FlowMod) decodeBody(b []byte, _ bool) error {
	if len(b) < 13+matchLen+2 {
		return ErrTruncated
	}
	f.DatapathID = binary.BigEndian.Uint64(b[:8])
	f.Command = FlowModCommand(b[8])
	f.Priority = binary.BigEndian.Uint16(b[9:11])
	f.IdleTimeout = binary.BigEndian.Uint16(b[11:13])
	var err error
	var rest []byte
	f.Match, rest, err = decodeMatch(b[13:])
	if err != nil {
		return err
	}
	if len(rest) < 2 {
		return ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(rest[:2]))
	rest = rest[2:]
	// Same hostile-count guard as PacketOut: never trust the header.
	if n*actionLen > len(rest) {
		return ErrTruncated
	}
	_, err = takeActions(&f.Actions, n, rest)
	return err
}

// FlowRemoved notifies the controller a flow expired or was deleted.
type FlowRemoved struct {
	DatapathID uint64
	Priority   uint16
	Match      Match
	// Reason: 0 = idle timeout, 1 = delete.
	Reason uint8
}

// Type implements Message.
func (FlowRemoved) Type() MsgType { return TypeFlowRemoved }
func (f FlowRemoved) appendBody(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, f.DatapathID)
	dst = binary.BigEndian.AppendUint16(dst, f.Priority)
	dst = f.Match.append(dst)
	return append(dst, f.Reason)
}
func (f *FlowRemoved) decodeBody(b []byte, _ bool) error {
	if len(b) < 10+matchLen+1 {
		return ErrTruncated
	}
	f.DatapathID = binary.BigEndian.Uint64(b[:8])
	f.Priority = binary.BigEndian.Uint16(b[8:10])
	var err error
	var rest []byte
	f.Match, rest, err = decodeMatch(b[10:])
	if err != nil {
		return err
	}
	if len(rest) < 1 {
		return ErrTruncated
	}
	f.Reason = rest[0]
	return nil
}

// PortStatus notifies the controller of a port change.
type PortStatus struct {
	DatapathID uint64
	Port       uint32
	// Reason: 0 = add, 1 = delete, 2 = modify.
	Reason uint8
	// Up reports link state.
	Up bool
}

// Type implements Message.
func (PortStatus) Type() MsgType { return TypePortStatus }
func (p PortStatus) appendBody(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, p.DatapathID)
	dst = binary.BigEndian.AppendUint32(dst, p.Port)
	dst = append(dst, p.Reason)
	if p.Up {
		return append(dst, 1)
	}
	return append(dst, 0)
}
func (p *PortStatus) decodeBody(b []byte, _ bool) error {
	if len(b) < 14 {
		return ErrTruncated
	}
	p.DatapathID = binary.BigEndian.Uint64(b[:8])
	p.Port = binary.BigEndian.Uint32(b[8:12])
	p.Reason = b[12]
	p.Up = b[13] == 1
	return nil
}

// ErrorMsg reports a protocol-level failure.
type ErrorMsg struct {
	ErrType uint16
	Code    uint16
	Data    []byte
}

// Type implements Message.
func (ErrorMsg) Type() MsgType { return TypeError }
func (e ErrorMsg) appendBody(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, e.ErrType)
	dst = binary.BigEndian.AppendUint16(dst, e.Code)
	return append(dst, e.Data...)
}
func (e *ErrorMsg) decodeBody(b []byte, zc bool) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	e.ErrType = binary.BigEndian.Uint16(b[:2])
	e.Code = binary.BigEndian.Uint16(b[2:4])
	takeBytes(&e.Data, b[4:], zc)
	return nil
}

// ControllerRole is a controller's mastership role over a switch
// (OpenFlow 1.3 §6.3.4 OFPCR_ROLE_*).
type ControllerRole uint32

// Controller roles.
const (
	RoleNoChange ControllerRole = 0
	RoleEqual    ControllerRole = 1
	RoleMaster   ControllerRole = 2
	RoleSlave    ControllerRole = 3
)

func (r ControllerRole) String() string {
	switch r {
	case RoleNoChange:
		return "nochange"
	case RoleEqual:
		return "equal"
	case RoleMaster:
		return "master"
	case RoleSlave:
		return "slave"
	default:
		return fmt.Sprintf("role-%d", uint32(r))
	}
}

// Role-request error identifiers (OFPET_ROLE_REQUEST_FAILED and its
// OFPRRFC_STALE code): a switch answers a role request that carries a
// generation id older than the highest it has seen with this error,
// which is what fences a deposed master off the dataplane.
const (
	ErrTypeRoleRequestFailed uint16 = 11
	RoleCodeStale            uint16 = 0
)

// RoleRequest asks a switch to set (or report) this connection's
// mastership role. GenerationID is the fencing token: a switch accepts
// master/slave transitions only when the generation id is at least the
// highest it has observed.
type RoleRequest struct {
	Role         ControllerRole
	GenerationID uint64
}

// Type implements Message.
func (RoleRequest) Type() MsgType { return TypeRoleRequest }
func (r RoleRequest) appendBody(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Role))
	return binary.BigEndian.AppendUint64(dst, r.GenerationID)
}
func (r *RoleRequest) decodeBody(b []byte, _ bool) error {
	if len(b) < 12 {
		return ErrTruncated
	}
	r.Role = ControllerRole(binary.BigEndian.Uint32(b[:4]))
	r.GenerationID = binary.BigEndian.Uint64(b[4:12])
	return nil
}

// RoleReply reports the role the switch granted and the generation id
// it now holds.
type RoleReply struct {
	Role         ControllerRole
	GenerationID uint64
}

// Type implements Message.
func (RoleReply) Type() MsgType { return TypeRoleReply }
func (r RoleReply) appendBody(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Role))
	return binary.BigEndian.AppendUint64(dst, r.GenerationID)
}
func (r *RoleReply) decodeBody(b []byte, _ bool) error {
	if len(b) < 12 {
		return ErrTruncated
	}
	r.Role = ControllerRole(binary.BigEndian.Uint32(b[:4]))
	r.GenerationID = binary.BigEndian.Uint64(b[4:12])
	return nil
}

// newMessage returns a fresh zero message of the given wire type.
func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeHello:
		return &Hello{}, nil
	case TypeError:
		return &ErrorMsg{}, nil
	case TypeEchoRequest:
		return &EchoRequest{}, nil
	case TypeEchoReply:
		return &EchoReply{}, nil
	case TypeFeaturesReq:
		return &FeaturesRequest{}, nil
	case TypeFeaturesReply:
		return &FeaturesReply{}, nil
	case TypePacketIn:
		return &PacketIn{}, nil
	case TypeFlowRemoved:
		return &FlowRemoved{}, nil
	case TypePortStatus:
		return &PortStatus{}, nil
	case TypePacketOut:
		return &PacketOut{}, nil
	case TypeFlowMod:
		return &FlowMod{}, nil
	case TypeRoleRequest:
		return &RoleRequest{}, nil
	case TypeRoleReply:
		return &RoleReply{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, uint8(t))
	}
}

// AppendEncode frames msg with the given transaction id, appending the
// encoded frame to dst and returning the extended slice. With enough
// capacity in dst the call performs no allocation. On error dst is
// returned truncated to its original length.
func AppendEncode(dst []byte, msg Message, xid uint32) ([]byte, error) {
	start := len(dst)
	dst = append(dst, Version, byte(msg.Type()), 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, xid)
	dst = msg.appendBody(dst)
	total := len(dst) - start
	if total > MaxFrameLen {
		return dst[:start], fmt.Errorf("%w: %d bytes", ErrOversized, total)
	}
	binary.BigEndian.PutUint16(dst[start+2:start+4], uint16(total))
	return dst, nil
}

// parseHeader validates a frame header and returns the framed length
// and xid.
func parseHeader(b []byte) (length int, xid uint32, err error) {
	if len(b) < headerLen {
		return 0, 0, ErrTruncated
	}
	if b[0] != Version {
		return 0, 0, fmt.Errorf("%w: 0x%02x", ErrBadVersion, b[0])
	}
	length = int(binary.BigEndian.Uint16(b[2:4]))
	if length < headerLen || len(b) < length {
		return 0, 0, ErrTruncated
	}
	return length, binary.BigEndian.Uint32(b[4:8]), nil
}

// Decode parses one framed message into a freshly allocated message,
// returning it, its xid, and any trailing bytes beyond the framed
// length.
func Decode(b []byte) (Message, uint32, []byte, error) {
	length, xid, err := parseHeader(b)
	if err != nil {
		return nil, 0, nil, err
	}
	msg, err := newMessage(MsgType(b[1]))
	if err != nil {
		return nil, 0, nil, err
	}
	if err := msg.decodeBody(b[headerLen:length], false); err != nil {
		return nil, 0, nil, err
	}
	return msg, xid, b[length:], nil
}

// ReadMessage reads exactly one framed message from r.
func ReadMessage(r io.Reader) (Message, uint32, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("openflow: read header: %w", err)
	}
	if hdr[0] != Version {
		return nil, 0, fmt.Errorf("%w: 0x%02x", ErrBadVersion, hdr[0])
	}
	length := int(binary.BigEndian.Uint16(hdr[2:4]))
	if length < headerLen {
		return nil, 0, ErrTruncated
	}
	// One allocation for the whole frame. Reading exactly one frame,
	// never ahead, lets a caller hand the transport to another reader
	// between frames.
	full := make([]byte, length)
	copy(full, hdr[:])
	if _, err := io.ReadFull(r, full[headerLen:]); err != nil {
		return nil, 0, fmt.Errorf("openflow: read body: %w", err)
	}
	msg, xid, _, err := Decode(full)
	return msg, xid, err
}

// WriteMessage frames and writes one message to w.
func WriteMessage(w io.Writer, msg Message, xid uint32) error {
	b, err := AppendEncode(nil, msg, xid)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("openflow: write: %w", err)
	}
	return nil
}
