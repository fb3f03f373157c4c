// Package ofconn provides the connection layer between the simulated
// dataplane and the controller: OpenFlow framing over any
// io.ReadWriter (net.Conn, net.Pipe, TLS...), the version handshake,
// transaction-id management, and echo keepalives. It turns the
// internal/openflow codec into a usable wire protocol, mirroring how a
// real switch agent and controller session are wired.
package ofconn

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sdnbugs/internal/openflow"
	"sdnbugs/internal/sdn"
)

// Connection errors.
var (
	ErrHandshake = errors.New("ofconn: handshake failed")
	ErrClosed    = errors.New("ofconn: connection closed")
)

// Conn frames OpenFlow messages over rw with monotonically increasing
// transaction ids. Reads and writes are independently serialized, so a
// reader goroutine can coexist with writers.
type Conn struct {
	rw io.ReadWriter

	writeMu sync.Mutex
	readMu  sync.Mutex
	nextXid uint32
	closed  bool

	// deadliner/readTimeout implement SetReadTimeout (keepalive.go):
	// armed before every blocking read so a stalled peer surfaces as
	// ErrPeerDead instead of hanging Recv forever. Guarded by readMu.
	deadliner   deadlineReader
	readTimeout time.Duration
}

// New wraps rw. The caller retains ownership of closing the underlying
// transport; Close here only marks the session dead.
func New(rw io.ReadWriter) *Conn {
	return &Conn{rw: rw, nextXid: 1}
}

// Close marks the session closed; subsequent sends and receives fail
// with ErrClosed.
func (c *Conn) Close() {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.closed = true
}

// Send frames and writes msg, returning the transaction id used.
func (c *Conn) Send(msg openflow.Message) (uint32, error) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	xid := c.nextXid
	c.nextXid++
	if err := openflow.WriteMessage(c.rw, msg, xid); err != nil {
		return 0, err
	}
	return xid, nil
}

// SendWithXid frames and writes msg under a caller-chosen transaction
// id (used for replies, which must echo the request's xid).
func (c *Conn) SendWithXid(msg openflow.Message, xid uint32) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return openflow.WriteMessage(c.rw, msg, xid)
}

// Recv reads the next framed message and never a byte past it, so a
// FrameReader attached to the same transport afterwards starts at the
// following frame.
func (c *Conn) Recv() (openflow.Message, uint32, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if c.closed {
		return nil, 0, ErrClosed
	}
	c.armReadDeadline()
	msg, xid, err := openflow.ReadMessage(c.rw)
	return msg, xid, wrapDeadPeer(err)
}

// Handshake runs the version negotiation from the initiating side:
// send Hello, expect Hello back.
func (c *Conn) Handshake() error {
	if _, err := c.Send(&openflow.Hello{}); err != nil {
		return fmt.Errorf("%w: send hello: %v", ErrHandshake, err)
	}
	msg, _, err := c.Recv()
	if err != nil {
		return fmt.Errorf("%w: read hello: %v", ErrHandshake, err)
	}
	if msg.Type() != openflow.TypeHello {
		return fmt.Errorf("%w: expected hello, got %v", ErrHandshake, msg.Type())
	}
	return nil
}

// AcceptHandshake runs the negotiation from the accepting side:
// expect Hello, reply Hello.
func (c *Conn) AcceptHandshake() error {
	msg, _, err := c.Recv()
	if err != nil {
		return fmt.Errorf("%w: read hello: %v", ErrHandshake, err)
	}
	if msg.Type() != openflow.TypeHello {
		return fmt.Errorf("%w: expected hello, got %v", ErrHandshake, msg.Type())
	}
	if _, err := c.Send(&openflow.Hello{}); err != nil {
		return fmt.Errorf("%w: send hello: %v", ErrHandshake, err)
	}
	return nil
}

// SwitchAgent speaks for one simulated switch over a connection: it
// completes the handshake and features exchange, punts packets to the
// controller, and applies the flow-mods and packet-outs it receives.
type SwitchAgent struct {
	Conn *Conn
	// Net is the dataplane holding the agent's switch.
	Net *sdn.Network
	// DPID is the switch this agent fronts.
	DPID uint64

	// role/gen/hasGen are the mastership state (role.go): the granted
	// controller role and the highest generation id accepted, used to
	// reject stale role requests from a deposed master.
	role   openflow.ControllerRole
	gen    uint64
	hasGen bool
}

// Start performs the switch-side session setup: handshake, then answer
// the controller's features request.
func (a *SwitchAgent) Start() error {
	if err := a.Conn.Handshake(); err != nil {
		return err
	}
	msg, xid, err := a.Conn.Recv()
	if err != nil {
		return fmt.Errorf("ofconn: features: %w", err)
	}
	if msg.Type() != openflow.TypeFeaturesReq {
		return fmt.Errorf("ofconn: expected features request, got %v", msg.Type())
	}
	sw, err := a.Net.Switch(a.DPID)
	if err != nil {
		return err
	}
	return a.Conn.SendWithXid(&openflow.FeaturesReply{
		DatapathID: a.DPID, NumPorts: sw.NumPorts,
	}, xid)
}

// PuntPacket sends a table-miss packet up to the controller.
func (a *SwitchAgent) PuntPacket(inPort uint32, p sdn.Packet) error {
	_, err := a.Conn.Send(&openflow.PacketIn{
		DatapathID: a.DPID,
		InPort:     inPort,
		Reason:     0,
		Data:       sdn.EncodePacket(p),
	})
	return err
}

// ServeOne reads and applies exactly one controller message (flow-mod,
// packet-out, echo request, or role request). It returns the message
// type served.
func (a *SwitchAgent) ServeOne() (openflow.MsgType, error) {
	msg, xid, err := a.Conn.Recv()
	if err != nil {
		return 0, err
	}
	switch m := msg.(type) {
	case *openflow.FlowMod:
		if err := a.Net.ApplyFlowMod(*m); err != nil {
			return msg.Type(), a.sendError(xid, err)
		}
	case *openflow.PacketOut:
		if _, err := a.Net.ApplyPacketOut(*m); err != nil {
			return msg.Type(), a.sendError(xid, err)
		}
	case *openflow.EchoRequest:
		if err := a.Conn.SendWithXid(&openflow.EchoReply{Data: m.Data}, xid); err != nil {
			return msg.Type(), err
		}
	case *openflow.RoleRequest:
		reply := a.roleReply(m, xid)
		if err := a.Conn.SendWithXid(reply.Msg, reply.Xid); err != nil {
			return msg.Type(), err
		}
	default:
		return msg.Type(), fmt.Errorf("ofconn: unexpected controller message %v", msg.Type())
	}
	return msg.Type(), nil
}

func (a *SwitchAgent) sendError(xid uint32, cause error) error {
	return a.Conn.SendWithXid(&openflow.ErrorMsg{
		ErrType: 1, Code: 1, Data: []byte(cause.Error()),
	}, xid)
}

// ControllerSession is the controller side of one switch connection:
// it accepts the handshake, learns the datapath, and exposes typed
// send/receive helpers.
type ControllerSession struct {
	Conn *Conn
	// DatapathID and NumPorts are learned during Accept.
	DatapathID uint64
	NumPorts   uint32
}

// Accept performs the controller-side session setup.
func (s *ControllerSession) Accept() error {
	if err := s.Conn.AcceptHandshake(); err != nil {
		return err
	}
	if _, err := s.Conn.Send(&openflow.FeaturesRequest{}); err != nil {
		return fmt.Errorf("ofconn: send features request: %w", err)
	}
	msg, _, err := s.Conn.Recv()
	if err != nil {
		return fmt.Errorf("ofconn: read features reply: %w", err)
	}
	fr, ok := msg.(*openflow.FeaturesReply)
	if !ok {
		return fmt.Errorf("ofconn: expected features reply, got %v", msg.Type())
	}
	s.DatapathID = fr.DatapathID
	s.NumPorts = fr.NumPorts
	return nil
}

// InstallFlow pushes a flow-mod to the switch.
func (s *ControllerSession) InstallFlow(fm openflow.FlowMod) error {
	fm.DatapathID = s.DatapathID
	_, err := s.Conn.Send(&fm)
	return err
}

// SendPacketOut pushes a packet-out to the switch.
func (s *ControllerSession) SendPacketOut(po openflow.PacketOut) error {
	po.DatapathID = s.DatapathID
	_, err := s.Conn.Send(&po)
	return err
}

// Ping sends an echo request and waits for the matching reply.
func (s *ControllerSession) Ping(payload []byte) error {
	xid, err := s.Conn.Send(&openflow.EchoRequest{Data: payload})
	if err != nil {
		return err
	}
	msg, gotXid, err := s.Conn.Recv()
	if err != nil {
		return err
	}
	if msg.Type() != openflow.TypeEchoReply || gotXid != xid {
		return fmt.Errorf("ofconn: bad echo reply (type %v, xid %d want %d)", msg.Type(), gotXid, xid)
	}
	return nil
}

// RecvPacketIn reads the next message, expecting a packet-in.
func (s *ControllerSession) RecvPacketIn() (*openflow.PacketIn, error) {
	msg, _, err := s.Conn.Recv()
	if err != nil {
		return nil, err
	}
	pi, ok := msg.(*openflow.PacketIn)
	if !ok {
		return nil, fmt.Errorf("ofconn: expected packet-in, got %v", msg.Type())
	}
	return pi, nil
}
