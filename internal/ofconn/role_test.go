package ofconn

import (
	"errors"
	"net"
	"testing"
	"time"

	"sdnbugs/internal/openflow"
	"sdnbugs/internal/sdn"
)

// serveN runs the agent loop for n messages in the background.
func serveN(agent *SwitchAgent, n int) chan error {
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := agent.ServeOne(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return done
}

func TestRoleHandoff(t *testing.T) {
	agent, session, _, cleanup := pipePair(t)
	defer cleanup()
	setup(t, agent, session)
	done := serveN(agent, 3)

	role, gen, err := session.RequestRole(openflow.RoleMaster, 1)
	if err != nil {
		t.Fatalf("master request: %v", err)
	}
	if role != openflow.RoleMaster || gen != 1 {
		t.Fatalf("granted role=%v gen=%d", role, gen)
	}
	// A later generation takes over cleanly.
	role, gen, err = session.RequestRole(openflow.RoleSlave, 2)
	if err != nil {
		t.Fatalf("slave request: %v", err)
	}
	if role != openflow.RoleSlave || gen != 2 {
		t.Fatalf("granted role=%v gen=%d", role, gen)
	}
	// NoChange reports without mutating.
	role, gen, err = session.RequestRole(openflow.RoleNoChange, 0)
	if err != nil {
		t.Fatalf("nochange request: %v", err)
	}
	if role != openflow.RoleSlave || gen != 2 {
		t.Fatalf("nochange reported role=%v gen=%d", role, gen)
	}
	if err := <-done; err != nil {
		t.Fatalf("agent serve: %v", err)
	}
}

func TestRoleStaleGenerationFenced(t *testing.T) {
	agent, session, _, cleanup := pipePair(t)
	defer cleanup()
	setup(t, agent, session)
	done := serveN(agent, 2)

	if _, _, err := session.RequestRole(openflow.RoleMaster, 5); err != nil {
		t.Fatalf("master request: %v", err)
	}
	// A deposed primary retrying with an older generation id must be
	// rejected with the stale error, and the switch's state unchanged.
	_, _, err := session.RequestRole(openflow.RoleMaster, 4)
	if !errors.Is(err, ErrStaleRole) {
		t.Fatalf("stale request: got %v, want ErrStaleRole", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("agent serve: %v", err)
	}
	if gen, ok := agent.GenerationID(); !ok || gen != 5 || agent.Role() != openflow.RoleMaster {
		t.Fatalf("agent state after stale request: role=%v gen=%d ok=%v", agent.Role(), gen, ok)
	}
}

func TestKeepaliveDetectsStalledPeer(t *testing.T) {
	// The peer drains bytes but never replies, simulating a wedged
	// switch: without a read timeout the controller's Recv would hang
	// forever.
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := sConn.Read(buf); err != nil {
				return
			}
		}
	}()
	session := &ControllerSession{Conn: New(cConn)}
	errc := make(chan error, 1)
	go func() {
		errc <- session.Keepalive([]byte("hb"), 50*time.Millisecond)
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrPeerDead) {
			t.Fatalf("keepalive: got %v, want ErrPeerDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("keepalive hung on a stalled peer")
	}
}

func TestKeepaliveHealthyPeer(t *testing.T) {
	agent, session, _, cleanup := pipePair(t)
	defer cleanup()
	setup(t, agent, session)
	done := serveN(agent, 1)
	if err := session.Keepalive([]byte("hb"), time.Second); err != nil {
		t.Fatalf("keepalive: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("agent serve: %v", err)
	}
	// The timeout must not linger: a follow-up blocking Recv on the
	// session should wait for real traffic, not trip a stale deadline.
	go func() {
		time.Sleep(100 * time.Millisecond)
		agent.PuntPacket(1, sdn.Packet{EthSrc: 0x21, EthDst: 0x22})
	}()
	if _, err := session.RecvPacketIn(); err != nil {
		t.Fatalf("recv after keepalive: %v", err)
	}
}

func TestSetReadTimeoutRejectsPlainTransport(t *testing.T) {
	var buf chanBuffer
	c := New(&buf)
	if err := c.SetReadTimeout(time.Second); err == nil {
		t.Fatal("expected rejection for a transport without deadlines")
	}
}

// chanBuffer is a minimal ReadWriter without deadline support.
type chanBuffer struct{}

func (chanBuffer) Read(p []byte) (int, error)  { return 0, net.ErrClosed }
func (chanBuffer) Write(p []byte) (int, error) { return len(p), nil }
