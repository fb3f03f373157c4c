package ofconn

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"sdnbugs/internal/openflow"
)

// ErrPeerDead reports that the peer failed to produce any bytes within
// the configured read timeout — the keepalive verdict for a stalled
// connection that would otherwise hang Recv forever.
var ErrPeerDead = errors.New("ofconn: peer dead (read timeout)")

// deadlineReader is the optional transport capability read timeouts
// need (net.Conn, net.Pipe, and *os.File all provide it).
type deadlineReader interface {
	SetReadDeadline(time.Time) error
}

// SetReadTimeout bounds how long any single Recv call may block
// waiting for the peer. A non-positive d clears the timeout. The
// transport must support SetReadDeadline; plain buffers and pipes that
// don't are rejected so callers learn at configuration time, not hang
// time. Reads that exceed the timeout fail with an error wrapping
// ErrPeerDead.
func (c *Conn) SetReadTimeout(d time.Duration) error {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	dr, ok := c.rw.(deadlineReader)
	if !ok {
		return fmt.Errorf("ofconn: transport %T does not support read deadlines", c.rw)
	}
	c.deadliner = dr
	c.readTimeout = d
	if d <= 0 {
		// Clear any armed deadline immediately so it cannot poison a
		// later blocking read.
		return dr.SetReadDeadline(time.Time{})
	}
	return nil
}

// armReadDeadline starts the timeout clock for one read call. Callers
// hold readMu.
func (c *Conn) armReadDeadline() {
	if c.deadliner == nil {
		return
	}
	if c.readTimeout <= 0 {
		c.deadliner.SetReadDeadline(time.Time{})
		return
	}
	c.deadliner.SetReadDeadline(time.Now().Add(c.readTimeout))
}

// wrapDeadPeer converts a deadline-exceeded read error into ErrPeerDead
// and passes every other error through.
func wrapDeadPeer(err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return fmt.Errorf("%w: %v", ErrPeerDead, err)
	}
	return err
}

// Keepalive probes the peer with one echo round trip bounded by
// timeout. A healthy peer answers and the session's previous timeout
// configuration is restored; a stalled peer yields ErrPeerDead instead
// of blocking forever.
func (s *ControllerSession) Keepalive(payload []byte, timeout time.Duration) error {
	if err := s.Conn.SetReadTimeout(timeout); err != nil {
		return err
	}
	defer s.Conn.SetReadTimeout(0)
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
