package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sdnbugs/internal/metrics"
	"sdnbugs/internal/openflow"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/supervise"
)

// testFactory builds identical clean controllers: a 3-switch linear
// topology running the learning L2 app, no fault middleware.
func testFactory() (*sdn.Controller, error) {
	net, err := sdn.LinearTopology(3)
	if err != nil {
		return nil, err
	}
	env := sdn.NewEnvironment("influxdb", "atomix")
	app := sdn.NewL2Switch(map[string]int{"influxdb": 1, "atomix": 1})
	return sdn.NewController(net, env, app), nil
}

func newTestEnsemble(t *testing.T) *Ensemble {
	t.Helper()
	e, err := New(Config{Replicas: 3, Factory: testFactory})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// workload yields a deterministic mixed event stream: config writes
// and unicast traffic between the linear topology's hosts.
func workload(n int) []sdn.Event {
	evs := make([]sdn.Event, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			evs = append(evs, sdn.Event{
				Kind:  sdn.EventConfig,
				Key:   fmt.Sprintf("vlan.zone%d", i%7),
				Value: fmt.Sprintf("%d", 100+i),
			})
		default:
			src := uint64(0x11 + i%3)
			dst := uint64(0x11 + (i+1)%3)
			evs = append(evs, sdn.Event{
				Kind: sdn.EventNetwork,
				Msg:  trafficPacketIn(src-0x10, 1, src, dst),
			})
		}
	}
	return evs
}

func runWorkload(t *testing.T, e *Ensemble, evs []sdn.Event, crashAt int) {
	t.Helper()
	for i, ev := range evs {
		if i == crashAt {
			e.CrashPrimary()
		}
		out := e.Submit(ev)
		if out != supervise.OutcomeProcessed && out != supervise.OutcomeHealed {
			t.Fatalf("event %d: outcome %v", i, out)
		}
		if i%8 == 7 {
			e.EndSlot()
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// unfaultedFingerprint plays evs on one clean controller.
func unfaultedFingerprint(t *testing.T, evs []sdn.Event) string {
	t.Helper()
	c, err := testFactory()
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		if err := c.Submit(ev); err != nil {
			t.Fatalf("unfaulted submit %d: %v", i, err)
		}
	}
	return StateFingerprint(c)
}

// TestFingerprintInvariantToFailoverPoint is the replication property
// test: wherever the primary crashes, the ensemble's converged state
// is byte-identical to the unfaulted single-controller run — failover
// never loses, duplicates, or reorders events.
func TestFingerprintInvariantToFailoverPoint(t *testing.T) {
	const events = 48
	evs := workload(events)
	want := unfaultedFingerprint(t, evs)
	for _, crashAt := range []int{0, 1, 7, 8, 23, 24, 40, 47} {
		e := newTestEnsemble(t)
		runWorkload(t, e, evs, crashAt)
		if e.Metrics.Failovers == 0 {
			t.Fatalf("crashAt=%d: no failover happened", crashAt)
		}
		if e.Metrics.Lost != 0 {
			t.Fatalf("crashAt=%d: lost %d events", crashAt, e.Metrics.Lost)
		}
		if !e.Converged() {
			t.Fatalf("crashAt=%d: replicas did not converge", crashAt)
		}
		for i, rep := range e.Reps {
			if got := StateFingerprint(rep.C); got != want {
				t.Fatalf("crashAt=%d: replica %d fingerprint %s, want %s", crashAt, i, got, want)
			}
		}
	}
}

// TestSequentialFailovers drives the ensemble through more crashes
// than it has replicas — revival via the factory plus full log replay
// must keep every replica electable.
func TestSequentialFailovers(t *testing.T) {
	evs := workload(96)
	want := unfaultedFingerprint(t, evs)
	e := newTestEnsemble(t)
	for i, ev := range evs {
		if i%20 == 10 {
			e.CrashPrimary()
		}
		out := e.Submit(ev)
		if out != supervise.OutcomeProcessed && out != supervise.OutcomeHealed {
			t.Fatalf("event %d: outcome %v", i, out)
		}
		e.EndSlot()
		if i%20 == 15 {
			// Revive whoever crashed so the ensemble regains headroom.
			for j := range e.Reps {
				if err := e.Revive(j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if e.Metrics.Failovers < 3 {
		t.Fatalf("Failovers = %d, want >= 3", e.Metrics.Failovers)
	}
	for i, rep := range e.Reps {
		if got := StateFingerprint(rep.C); got != want {
			t.Fatalf("replica %d fingerprint %s, want %s", i, got, want)
		}
	}
}

// TestPartitionLeaseElection isolates the primary: slots burn lease,
// the majority elects a successor, and the deposed-but-alive primary's
// write and wire mastership claims all bounce off the fence.
func TestPartitionLeaseElection(t *testing.T) {
	e := newTestEnsemble(t)
	evs := workload(16)
	for _, ev := range evs {
		if out := e.Submit(ev); out != supervise.OutcomeProcessed {
			t.Fatalf("outcome %v", out)
		}
		e.EndSlot()
	}
	oldID := e.Primary().ID
	oldTerm := e.Primary().Term()
	oldLog := len(e.Reps[oldID].C.Log)
	e.Isolate(oldID)
	if e.Available() {
		t.Fatal("isolated primary still reports available")
	}
	for i := 0; i < e.cfg.LeaseSlots; i++ {
		e.EndSlot()
	}
	if e.Primary().ID == oldID {
		t.Fatal("lease expiry did not elect a new primary")
	}
	if e.Metrics.Elections != 1 || e.Metrics.Failovers != 1 {
		t.Fatalf("metrics %+v", e.Metrics)
	}
	// failover() already probed the deposed primary once; probe again
	// explicitly and verify nothing ever leaks.
	if e.Metrics.FencedRejects == 0 || e.Metrics.WireStaleRejects != 3 {
		t.Fatalf("fence evidence missing: %+v", e.Metrics)
	}
	ok := e.AttemptStaleWrite(oldID, oldTerm, sdn.Event{Kind: sdn.EventConfig, Key: "x", Value: "y"})
	if !ok || e.Metrics.FencedLeaks != 0 {
		t.Fatalf("stale write leaked: %+v", e.Metrics)
	}
	if len(e.Reps[oldID].C.Log) != oldLog {
		t.Fatal("deposed primary's log grew")
	}
	for _, gen := range e.BankRef().Generations() {
		if gen != e.Term() {
			t.Fatalf("bank generation %d, want %d", gen, e.Term())
		}
	}
}

// TestAsymmetricLinkDefeatsElection breaks one direction of a standby
// link during a primary partition: with N=3, the candidate cannot
// gather a bidirectional majority, the election fails, and slots keep
// burning lease until the link heals.
func TestAsymmetricLinkDefeatsElection(t *testing.T) {
	e := newTestEnsemble(t)
	for _, ev := range workload(8) {
		e.Submit(ev)
	}
	e.EndSlot()
	e.Isolate(0)
	e.BreakLink(1, 2)
	for i := 0; i < e.cfg.LeaseSlots+2; i++ {
		e.EndSlot()
	}
	if e.Metrics.FailedElections == 0 {
		t.Fatalf("expected failed elections, metrics %+v", e.Metrics)
	}
	if e.Primary().ID != 0 {
		t.Fatal("a candidate won without a bidirectional majority")
	}
	// Healing the link lets the next lease expiry elect.
	e.reach[1][2] = true
	e.EndSlot()
	if e.Primary().ID == 0 {
		t.Fatalf("election still failing after link heal: %+v", e.Metrics)
	}
}

// fencedLog is the atomic check-then-append a correct fenced store
// must implement: the fence verdict and the append happen under one
// lock, so a concurrent Advance cannot slip between them.
type fencedLog struct {
	mu      sync.Mutex
	fence   *Fence
	entries []uint64
}

func (l *fencedLog) append(term uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.fence.Allow(term) {
		return false
	}
	l.entries = append(l.entries, term)
	return true
}

// TestConcurrentDualPrimaryFencing races deposed-primary writers
// against fence advances (run under -race): once a term is fenced
// off, every write under it must be rejected — no leaks, ever.
func TestConcurrentDualPrimaryFencing(t *testing.T) {
	var f Fence
	f.Advance(1)
	log := &fencedLog{fence: &f}
	const writers = 8
	const writesEach = 200

	// Phase 1: term 1 is live; concurrent writers all succeed.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writesEach; i++ {
				if !log.append(1) {
					t.Error("live-term write rejected")
					return
				}
			}
		}()
	}
	wg.Wait()

	// Phase 2: the new primary takes term 2; deposed writers keep
	// hammering term 1 while the fence keeps advancing. Every stale
	// write must fail.
	if !f.Advance(2) {
		t.Fatal("Advance(2) failed")
	}
	var staleAccepted atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writesEach; i++ {
				if log.append(1) {
					staleAccepted.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for term := uint64(3); term < 50; term++ {
			f.Advance(term)
		}
	}()
	wg.Wait()
	if n := staleAccepted.Load(); n != 0 {
		t.Fatalf("%d stale writes leaked past the fence", n)
	}
	for _, term := range log.entries {
		if term != 1 {
			t.Fatalf("unexpected entry term %d", term)
		}
	}
	if len(log.entries) != writers*writesEach {
		t.Fatalf("live writes lost: %d entries", len(log.entries))
	}
	if f.Advance(10) {
		t.Fatal("fence moved backward")
	}
	if f.Generation() != 49 {
		t.Fatalf("generation = %d, want 49", f.Generation())
	}
}

// TestSupervisorCrashPathUsesFailoverHook verifies the integration
// point: a crashed primary detected mid-submit escalates through the
// supervisor's exhausted restart budget into the ensemble failover,
// and the event lands on the new primary exactly once.
func TestSupervisorCrashPathUsesFailoverHook(t *testing.T) {
	e := newTestEnsemble(t)
	e.Submit(sdn.Event{Kind: sdn.EventConfig, Key: "a", Value: "1"})
	e.EndSlot()
	e.CrashPrimary()
	out := e.Submit(sdn.Event{Kind: sdn.EventConfig, Key: "b", Value: "2"})
	if out != supervise.OutcomeHealed {
		t.Fatalf("outcome %v, want healed", out)
	}
	if e.Reps[0].Sup.Metrics.Failovers != 1 {
		t.Fatalf("supervisor failovers = %d, want 1", e.Reps[0].Sup.Metrics.Failovers)
	}
	p := e.Primary()
	if p.ID == 0 {
		t.Fatal("primary did not move")
	}
	var n int
	for _, ev := range p.C.Log {
		if ev.Key == "b" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("failed-over event logged %d times on new primary, want 1", n)
	}
	if p.C.Config["b"] != "2" {
		t.Fatal("failed-over event not applied")
	}
}

// TestBankHandoffExchangesRealFrames sanity-checks that the bank is a
// real wire: generations advance through encode/decode round trips
// and stale claims produce counted rejections.
func TestBankHandoffExchangesRealFrames(t *testing.T) {
	b, err := NewBank([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Handoff(1); err != nil {
		t.Fatal(err)
	}
	if granted, err := b.Handoff(2); err != nil || granted != 3 {
		t.Fatalf("handoff: granted=%d err=%v", granted, err)
	}
	if rej := b.TryStaleMaster(1); rej != 3 {
		t.Fatalf("stale rejections = %d, want 3", rej)
	}
	for _, gen := range b.Generations() {
		if gen != 2 {
			t.Fatalf("generation %d, want 2", gen)
		}
	}
}

// trafficPacketIn fabricates the punt a switch sends when src talks
// to dst — enough for the L2 app to learn and install flows.
func trafficPacketIn(dpid uint64, inPort uint32, src, dst uint64) *openflow.PacketIn {
	return &openflow.PacketIn{
		DatapathID: dpid,
		InPort:     inPort,
		Data:       sdn.EncodePacket(sdn.Packet{EthSrc: src, EthDst: dst}),
	}
}

// A slot whose log suffix overruns a standby's inbox ring ships what
// fits, counts the rest as deferred, and the standby converges over
// the following slots.
func TestInboxOverrunDefersToLaterSlots(t *testing.T) {
	const inbox, events = 8, 20
	reg := metrics.NewRegistry()
	e, err := New(Config{Replicas: 3, InboxCapacity: inbox, Factory: testFactory, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range workload(events) {
		if out := e.Submit(ev); out != supervise.OutcomeProcessed {
			t.Fatalf("event %d: outcome %v", i, out)
		}
	}
	deferred := reg.Counter("cluster_inbox_deferred_total")
	e.EndSlot()
	if got, want := deferred.Value(), uint64(2*(events-inbox)); got != want {
		t.Fatalf("after one slot: deferred %d, want %d", got, want)
	}
	for _, rep := range e.Reps[1:] {
		if len(rep.C.Log) != inbox {
			t.Fatalf("replica %d shipped %d events in one slot, want %d", rep.ID, len(rep.C.Log), inbox)
		}
	}
	for slot := 0; slot < 2; slot++ {
		e.EndSlot()
	}
	if !e.Converged() {
		t.Fatal("standbys did not converge over the following slots")
	}
	if got, want := deferred.Value(), uint64(2*(events-inbox+events-2*inbox)); got != want {
		t.Fatalf("deferred %d after convergence, want %d", got, want)
	}
	want := StateFingerprint(e.Primary().C)
	for _, rep := range e.Reps {
		if got := StateFingerprint(rep.C); got != want {
			t.Fatalf("replica %d fingerprint %s != primary %s", rep.ID, got, want)
		}
	}
}
