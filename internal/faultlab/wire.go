package faultlab

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"sdnbugs/internal/ofconn"
	"sdnbugs/internal/openflow"
	"sdnbugs/internal/sdn"
)

// WireFaultKind enumerates the connection-layer faults the sustained
// campaign injects at the ofconn layer — the wire analogues of the
// taxonomy's network-event trigger: peers hang up, stall, or send
// frames the codec must reject rather than crash on.
type WireFaultKind int

// Wire fault kinds.
const (
	// WireGarbage feeds random bytes with a bad version byte.
	WireGarbage WireFaultKind = iota
	// WireTruncatedFrame cuts a valid frame in half mid-body.
	WireTruncatedFrame
	// WireBadLength declares a frame length shorter than the header.
	WireBadLength
	// WireActionBomb declares 65535 actions with no action bytes.
	WireActionBomb
	// WireHandshakeStall models a peer that never answers Hello.
	WireHandshakeStall
	// WireDroppedConn models the peer hanging up, then use-after-close.
	WireDroppedConn

	numWireFaultKinds
)

func (k WireFaultKind) String() string {
	switch k {
	case WireGarbage:
		return "garbage-frame"
	case WireTruncatedFrame:
		return "truncated-frame"
	case WireBadLength:
		return "bad-declared-length"
	case WireActionBomb:
		return "action-count-bomb"
	case WireHandshakeStall:
		return "handshake-stall"
	case WireDroppedConn:
		return "dropped-connection"
	default:
		return fmt.Sprintf("wire-fault-%d", int(k))
	}
}

// errWireStall is the deadline error a stalled read surfaces.
var errWireStall = errors.New("faultlab: wire read timed out")

// scriptConn replays fixed bytes and discards writes — a scripted
// switch peer.
type scriptConn struct{ r io.Reader }

func (c scriptConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c scriptConn) Write(p []byte) (int, error) { return len(p), nil }

// stalledConn never yields bytes: the handshake peer that hangs.
type stalledConn struct{}

func (stalledConn) Read([]byte) (int, error)    { return 0, errWireStall }
func (stalledConn) Write(p []byte) (int, error) { return len(p), nil }

// droppedConn EOFs reads and rejects writes: the peer hung up.
type droppedConn struct{}

func (droppedConn) Read([]byte) (int, error)  { return 0, io.EOF }
func (droppedConn) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// WireEpisode injects one wire-level fault through the real
// ofconn/openflow code path and returns the error the session layer
// surfaced (faultErr) plus any harness failure (err). A nil faultErr
// means the injection failed to produce a fault — the campaign treats
// that as a harness bug, not a survival. After every fault a valid
// frame is pushed through a fresh connection, proving the codec holds
// no poisoned state.
func WireEpisode(kind WireFaultKind, rng *rand.Rand) (faultErr error, err error) {
	switch kind {
	case WireGarbage:
		buf := make([]byte, 24)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		if buf[0] == openflow.Version {
			buf[0] ^= 0xff
		}
		conn := ofconn.New(scriptConn{bytes.NewReader(buf)})
		_, _, faultErr = conn.Recv()
		if !errors.Is(faultErr, openflow.ErrBadVersion) {
			return nil, fmt.Errorf("faultlab: garbage frame: want ErrBadVersion, got %v", faultErr)
		}
	case WireTruncatedFrame:
		frame := mustEncodeProbe()
		conn := ofconn.New(scriptConn{bytes.NewReader(frame[:len(frame)/2])})
		_, _, faultErr = conn.Recv()
		if faultErr == nil {
			return nil, errors.New("faultlab: truncated frame decoded cleanly")
		}
	case WireBadLength:
		// A syntactically valid header whose declared length is shorter
		// than the header itself.
		hdr := make([]byte, 8)
		hdr[0] = openflow.Version
		hdr[1] = byte(openflow.TypeHello)
		binary.BigEndian.PutUint16(hdr[2:4], 4)
		conn := ofconn.New(scriptConn{bytes.NewReader(hdr)})
		_, _, faultErr = conn.Recv()
		if !errors.Is(faultErr, openflow.ErrTruncated) {
			return nil, fmt.Errorf("faultlab: bad length: want ErrTruncated, got %v", faultErr)
		}
	case WireActionBomb:
		// A packet-out whose header-declared action count (65535) has no
		// bytes behind it; the decoder must reject it without iterating.
		body := make([]byte, 14)
		binary.BigEndian.PutUint64(body[0:8], 1)
		binary.BigEndian.PutUint32(body[8:12], 1)
		binary.BigEndian.PutUint16(body[12:14], 0xffff)
		frame := make([]byte, 8+len(body))
		frame[0] = openflow.Version
		frame[1] = byte(openflow.TypePacketOut)
		binary.BigEndian.PutUint16(frame[2:4], uint16(len(frame)))
		copy(frame[8:], body)
		conn := ofconn.New(scriptConn{bytes.NewReader(frame)})
		_, _, faultErr = conn.Recv()
		if !errors.Is(faultErr, openflow.ErrTruncated) {
			return nil, fmt.Errorf("faultlab: action bomb: want ErrTruncated, got %v", faultErr)
		}
	case WireHandshakeStall:
		conn := ofconn.New(stalledConn{})
		faultErr = conn.Handshake()
		if !errors.Is(faultErr, ofconn.ErrHandshake) {
			return nil, fmt.Errorf("faultlab: handshake stall: want ErrHandshake, got %v", faultErr)
		}
	case WireDroppedConn:
		conn := ofconn.New(droppedConn{})
		_, _, faultErr = conn.Recv()
		if faultErr == nil {
			return nil, errors.New("faultlab: dropped connection read succeeded")
		}
		// Use-after-close must fail typed, not hang or panic.
		conn.Close()
		if _, _, closedErr := conn.Recv(); !errors.Is(closedErr, ofconn.ErrClosed) {
			return nil, fmt.Errorf("faultlab: recv after close: want ErrClosed, got %v", closedErr)
		}
	default:
		return nil, fmt.Errorf("faultlab: unknown wire fault kind %d", kind)
	}
	return faultErr, verifyWireRoundTrip()
}

// mustEncodeProbe frames the canonical probe packet-in.
func mustEncodeProbe() []byte {
	frame, err := openflow.AppendEncode(nil, &openflow.PacketIn{
		DatapathID: 1, InPort: 2,
		Data: sdn.EncodePacket(sdn.Packet{EthDst: sdn.BroadcastMAC, EthType: 0x0806}),
	}, 99)
	if err != nil {
		panic(err) // static message; cannot fail
	}
	return frame
}

// verifyWireRoundTrip proves a healthy frame still decodes end-to-end
// after a fault episode.
func verifyWireRoundTrip() error {
	conn := ofconn.New(scriptConn{bytes.NewReader(mustEncodeProbe())})
	msg, xid, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("faultlab: wire round-trip: %w", err)
	}
	pi, ok := msg.(*openflow.PacketIn)
	if !ok || xid != 99 || pi.DatapathID != 1 || pi.InPort != 2 {
		return fmt.Errorf("faultlab: wire round-trip corrupted: %v xid=%d", msg.Type(), xid)
	}
	return nil
}
