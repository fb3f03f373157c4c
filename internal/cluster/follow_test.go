package cluster

import (
	"math/rand"
	"testing"

	"sdnbugs/internal/metrics"
	"sdnbugs/internal/sdn"
)

// prefixMismatch reports the first index at which log is not an
// element-by-element prefix of of, or -1 when it is one.
func prefixMismatch(log, of []sdn.Event) int {
	if len(log) > len(of) {
		return len(of)
	}
	for i := range log {
		a, b := log[i], of[i]
		if a.Seq != b.Seq || a.Kind != b.Kind || a.Key != b.Key || a.Value != b.Value ||
			a.Service != b.Service || a.DPID != b.DPID || a.Msg != b.Msg {
			return i
		}
	}
	return -1
}

// checkStandbyPrefixes fails unless every live standby's log is a
// prefix of the primary's, element by element.
func checkStandbyPrefixes(t *testing.T, e *Ensemble, step int) {
	t.Helper()
	p := e.Primary()
	for _, rep := range e.Reps {
		if rep == p || rep.C.State == sdn.StateCrashed {
			continue
		}
		if i := prefixMismatch(rep.C.Log, p.C.Log); i >= 0 {
			t.Fatalf("step %d: standby %d's log (%d events) is not a prefix of primary %d's (%d events): differs at %d",
				step, rep.ID, len(rep.C.Log), p.ID, len(p.C.Log), i)
		}
	}
}

// playSchedule decodes data, one byte per step, into Submit, EndSlot,
// CrashPrimary, Isolate, BreakLink, HealLinks, Revive and Sync calls
// on a 3-replica ensemble and checks after every step that each live
// standby holds a prefix of the primary's log. It keeps the discipline
// the failover campaign keeps: client events are submitted only to a
// live primary holding quorum (a crashed one is failed over first, as
// switches do on keepalive timeout), and links fail only at slot
// boundaries. After each Sync every replica's fingerprint must equal
// the primary's, and the primary's must equal a controller that copied
// the primary's log through ProcessBatch.
func playSchedule(t *testing.T, data []byte, pool []sdn.Event, reg *metrics.Registry) {
	e, err := New(Config{Replicas: 3, InboxCapacity: 16, Factory: testFactory, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for step, b := range data {
		arg := int(b >> 3)
		switch b & 7 {
		case 0, 1:
			if !e.EnsureServing() {
				break // no failover possible: clients wait
			}
			for n := 1 + arg%5; n > 0 && e.Available(); n-- {
				e.Submit(pool[next%len(pool)])
				next++
			}
		case 2:
			e.EndSlot()
		case 3:
			e.CrashPrimary()
		case 4:
			settle(e)
			e.Isolate(arg % 3)
		case 5:
			settle(e)
			if i, j := arg%3, (arg/3)%3; i != j {
				e.BreakLink(i, j)
			}
		case 6:
			e.HealLinks()
		case 7:
			if arg%4 != 0 {
				if i := arg % 3; i != e.primary {
					if err := e.Revive(i); err != nil {
						t.Fatal(err)
					}
				}
				break
			}
			e.HealLinks()
			for i := range e.Reps {
				if i != e.primary {
					if err := e.Revive(i); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !e.EnsureServing() {
				t.Fatalf("step %d: no primary after healing and reviving", step)
			}
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			if !e.Converged() {
				t.Fatalf("step %d: Sync did not converge", step)
			}
			want := StateFingerprint(e.Primary().C)
			for _, rep := range e.Reps {
				if got := StateFingerprint(rep.C); got != want {
					t.Fatalf("step %d: replica %d fingerprint %s, primary %s", step, rep.ID, got, want)
				}
			}
			ref, err := testFactory()
			if err != nil {
				t.Fatal(err)
			}
			ref.ProcessBatch(e.Primary().C.Log)
			if got := StateFingerprint(ref); got != want {
				t.Fatalf("step %d: a copying replay fingerprints %s, the ensemble %s", step, got, want)
			}
		}
		checkStandbyPrefixes(t, e, step)
	}
}

// settle ends slots until every standby the primary reaches holds its
// whole log: the failover campaign's links fail only at a slot
// boundary with nothing left unshipped, and a 16-event batch bound can
// leave part of a slot for the next one. The slot bound only keeps a
// broken catch-up from hanging the test.
func settle(e *Ensemble) {
	for slot := 0; slot < 1<<12; slot++ {
		e.EndSlot()
		p := e.Primary()
		if !e.hasQuorum(e.primary) || p.C.State == sdn.StateCrashed {
			return
		}
		lagging := false
		for i, rep := range e.Reps {
			if i != e.primary && e.reachable(e.primary, i) && rep.C.State != sdn.StateCrashed &&
				len(rep.C.Log) < len(p.C.Log) {
				lagging = true
			}
		}
		if !lagging {
			return
		}
	}
}

// randomSchedule draws n schedule bytes, weighted towards Submit and
// EndSlot so logs grow across several regrowths.
func randomSchedule(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	for i := range data {
		op := []byte{0, 0, 1, 1, 2, 2, 2, 3, 4, 5, 6, 7}[rng.Intn(12)]
		data[i] = byte(rng.Intn(32))<<3 | op
	}
	return data
}

// FuzzFollowMatchesCopy plays random replication schedules: standbys
// that adopt the primary's log instead of copying it must still hold
// exactly the primary's prefix after every step and converge to the
// state a copying replay reaches.
func FuzzFollowMatchesCopy(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(randomSchedule(seed, 300))
	}
	f.Add([]byte{0x20, 0x20, 2, 3, 0x20, 2, 7})
	pool := workload(512)
	f.Fuzz(func(t *testing.T, data []byte) {
		playSchedule(t, data, pool, nil)
	})
}

// The random schedules catch up by every proven-prefix path: the
// O(1) proof for the common case and the comparison for a standby
// that lagged across leader regrowths. None diverges, so none copies.
func TestFollowSchedulesTakeProvenPaths(t *testing.T) {
	reg := metrics.NewRegistry()
	pool := workload(512)
	for seed := int64(1); seed <= 8; seed++ {
		playSchedule(t, randomSchedule(seed, 300), pool, reg)
	}
	adopted := reg.Counter("cluster_catchup_adopted_total").Value()
	compared := reg.Counter("cluster_catchup_compared_total").Value()
	copied := reg.Counter("cluster_catchup_copied_total").Value()
	if adopted == 0 || compared == 0 || copied != 0 {
		t.Fatalf("catch-ups: %d adopted, %d compared, %d copied; want adopted and compared, none copied",
			adopted, compared, copied)
	}
}

// A standby promoted while it lagged the deposed primary appends its
// own events; none of them may change an entry the deposed primary or
// the other standby holds, although all three began on one array.
func TestPromotedStandbyAppendsStayPrivate(t *testing.T) {
	e := newTestEnsemble(t)
	evs := workload(27)
	for _, ev := range evs[:16] {
		e.Submit(ev)
	}
	e.EndSlot()
	// An unshipped tail that fits the primary's spare capacity: the
	// deposed primary keeps writing the array the standbys adopted.
	old := e.Primary()
	for _, ev := range evs[16:19] {
		e.Submit(ev)
	}
	s1 := e.Reps[1]
	if &s1.C.Log[0] != &old.C.Log[0] || len(s1.C.Log) != 16 || len(old.C.Log) != 19 {
		t.Fatalf("setup: standby holds %d events on the primary's array: %v; primary %d",
			len(s1.C.Log), &s1.C.Log[0] == &old.C.Log[0], len(old.C.Log))
	}
	oldLog := append([]sdn.Event(nil), old.C.Log...)
	e.Isolate(old.ID)
	for i := 0; i < e.cfg.LeaseSlots; i++ {
		e.EndSlot()
	}
	p := e.Primary()
	if p == old {
		t.Fatal("lease expiry did not elect a new primary")
	}
	var other *Replica
	for _, rep := range e.Reps {
		if rep != p && rep != old {
			other = rep
		}
	}
	otherLog := append([]sdn.Event(nil), other.C.Log...)
	for _, ev := range evs[19:] {
		e.Submit(ev)
	}
	if i := prefixMismatch(oldLog, old.C.Log); i >= 0 || len(old.C.Log) != len(oldLog) {
		t.Fatalf("the promoted standby's appends rewrote the deposed primary's entry %d", i)
	}
	if i := prefixMismatch(otherLog, other.C.Log); i >= 0 {
		t.Fatalf("the promoted standby's appends rewrote the other standby's entry %d", i)
	}
	if i := prefixMismatch(other.C.Log, p.C.Log); i >= 0 {
		t.Fatalf("standby is no prefix of the new primary at %d", i)
	}
	// The deposed primary still holds the array the new primary grew
	// from (once, on its first append), but is longer than what that
	// growth copied: its unshipped tail diverges, so catching up must
	// copy, never adopt.
	if len(p.C.Log) != 24 || cap(p.C.Log) != 24 {
		t.Fatalf("setup: new primary grew more than once (len %d, cap %d)", len(p.C.Log), cap(p.C.Log))
	}
	e.HealLinks()
	e.EndSlot()
	if i := prefixMismatch(oldLog, old.C.Log); i >= 0 {
		t.Fatalf("catching up replaced the deposed primary's own entry %d", i)
	}
}
