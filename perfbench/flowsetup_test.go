package main

import (
	"strings"
	"testing"
	"time"

	"sdnbugs/internal/openflow"
)

// pushBurst sends load back to back through a fresh rig whose frame
// copy is own, and returns the fingerprint gate's verdict.
func pushBurst(t *testing.T, load puntLoad, own func(*openflow.PacketIn) *openflow.PacketIn) error {
	t.Helper()
	r, err := newFlowRig(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	r.own = own
	err = flowPhase(r, load, func() error {
		_, err := r.sw.Write(load.buf)
		return err
	}, func(int, time.Time) {})
	if err != nil {
		t.Fatal(err)
	}
	if r.st.wirePunts != load.n() || r.st.failedOuts != 0 {
		t.Fatalf("served %d punts with %d failed outcomes, want %d and 0", r.st.wirePunts, r.st.failedOuts, load.n())
	}
	return r.checkReplicas(load)
}

func TestFingerprintGate(t *testing.T) {
	load, err := genPunts(7, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if err := pushBurst(t, load, ownPacketIn); err != nil {
		t.Fatalf("owned copies failed the gate: %v", err)
	}
	// Submitting the zero-copy frame itself leaves the replica logs
	// pointing into the reader's ring, which later batches overwrite.
	aliased := func(pi *openflow.PacketIn) *openflow.PacketIn { return pi }
	err = pushBurst(t, load, aliased)
	if err == nil || !strings.Contains(err.Error(), "reference") {
		t.Fatalf("aliased frames passed the gate (err = %v)", err)
	}
}

func TestGenPuntsIsSeeded(t *testing.T) {
	a, _ := genPunts(3, 500)
	b, _ := genPunts(3, 500)
	c, _ := genPunts(4, 500)
	if string(a.buf) != string(b.buf) || string(a.buf) == string(c.buf) {
		t.Error("punts are not a function of the seed")
	}
	broadcasts := 0
	for i := 0; i < a.n(); i++ {
		msg, xid, _, err := openflow.Decode(a.buf[a.offs[i]:a.offs[i+1]])
		if err != nil || xid != uint32(i) {
			t.Fatalf("frame %d: xid %d, %v", i, xid, err)
		}
		if pi := msg.(*openflow.PacketIn); pi.Data[0] == 0xff {
			broadcasts++
		}
	}
	if broadcasts < 25 || broadcasts > 80 {
		t.Errorf("%d of 500 punts are broadcasts, want about 10%%", broadcasts)
	}
}
