package supervise

import (
	"testing"
	"time"

	"sdnbugs/internal/openflow"
	"sdnbugs/internal/resilience"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/taxonomy"
)

// scriptApp is a control app whose behavior is keyed off config-event
// keys, so tests can script exact failure sequences.
type scriptApp struct {
	// crashes maps a config key to how many times handling it crashes
	// before succeeding; -1 crashes forever.
	crashes map[string]int
	// cost maps a config key to a fixed handler cost (default 1).
	cost map[string]int
}

func (a *scriptApp) Name() string { return "script" }

func (a *scriptApp) HandleEvent(c *sdn.Controller, ev sdn.Event) (int, error) {
	if ev.Kind != sdn.EventConfig {
		return 1, nil
	}
	if n, ok := a.crashes[ev.Key]; ok && n != 0 {
		if n > 0 {
			a.crashes[ev.Key] = n - 1
		}
		return 1, sdn.ErrCrash
	}
	c.Config[ev.Key] = ev.Value
	if cost, ok := a.cost[ev.Key]; ok {
		return cost, nil
	}
	return 1, nil
}

func newScripted(app *scriptApp, cfg Config) *Supervisor {
	c := sdn.NewController(sdn.NewNetwork(), sdn.NewEnvironment(), app)
	return New(c, cfg)
}

func cfgEvent(key, value string) sdn.Event {
	return sdn.Event{Kind: sdn.EventConfig, Key: key, Value: value}
}

func TestProbeDetectsSymptoms(t *testing.T) {
	app := &scriptApp{
		crashes: map[string]int{"boom": -1},
		cost:    map[string]int{"slow": 1500},
	}
	s := newScripted(app, Config{})
	if h := s.Probe(); !h.Live || !h.Ready {
		t.Fatalf("healthy controller probed unhealthy: %+v", h)
	}
	s.C.Submit(cfgEvent("slow", "1"))
	if h := s.Probe(); h.Ready || h.Symptom != taxonomy.SymptomByzantine {
		t.Fatalf("stall not detected: %+v", h)
	}
	s.C.Restart(true)
	s.C.Submit(cfgEvent("boom", "1"))
	if h := s.Probe(); h.Live || h.Symptom != taxonomy.SymptomFailStop {
		t.Fatalf("crash not detected: %+v", h)
	}
}

func TestProbePerformanceRegression(t *testing.T) {
	app := &scriptApp{cost: map[string]int{"heavy": 50}}
	s := newScripted(app, Config{BaselineMeanCost: 1})
	for i := 0; i < perfWindow; i++ {
		s.Submit(cfgEvent("heavy", "1"))
	}
	if s.Metrics.PerfRegressions == 0 {
		t.Fatal("sustained 50x baseline cost not flagged as perf regression")
	}
	if s.Metrics.Restarts == 0 {
		t.Fatal("perf regression did not trigger a restart")
	}
}

func TestSubmitHealsTransientCrash(t *testing.T) {
	// One crash, then healthy: restart + retry must recover the event.
	app := &scriptApp{crashes: map[string]int{"flaky": 1}}
	s := newScripted(app, Config{})
	if out := s.Submit(cfgEvent("flaky", "7")); out != OutcomeHealed {
		t.Fatalf("outcome = %v, want healed", out)
	}
	if s.C.Config["flaky"] != "7" {
		t.Fatalf("retried event's effect missing: config=%v", s.C.Config)
	}
	m := s.Metrics
	if m.EventsProcessed != 1 || m.EventsHealed != 1 || m.Restarts != 1 || m.FailStops != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	// A later clean success of the class resets its failure streak.
	if out := s.Submit(cfgEvent("flaky", "8")); out != OutcomeProcessed {
		t.Fatalf("second submit = %v, want processed", out)
	}
}

func TestDeterministicCrashDegradesClass(t *testing.T) {
	app := &scriptApp{crashes: map[string]int{"poison": -1}}
	s := newScripted(app, Config{})
	if out := s.Submit(cfgEvent("poison", "1")); out != OutcomeDegraded {
		t.Fatalf("outcome = %v, want degraded", out)
	}
	if !s.ClassShed(sdn.EventConfig.String()) {
		t.Fatal("class not shed after exhausting recovery attempts")
	}
	if s.C.State != sdn.StateRunning {
		t.Fatalf("controller left %v after degradation, want running", s.C.State)
	}
	// Shed class: dropped at Submit and at Filter, no further healing.
	if out := s.Submit(cfgEvent("poison", "2")); out != OutcomeShed {
		t.Fatalf("post-shed submit = %v, want shed", out)
	}
	if _, keep := s.Filter(cfgEvent("poison", "3")); keep {
		t.Fatal("Filter passed an event of a shed class")
	}
	m := s.Metrics
	// Three shed drops: the degrading event itself, the post-shed
	// Submit, and the Filter drop.
	if m.Degradations != 1 || m.EventsShed != 3 {
		t.Fatalf("metrics = %+v", m)
	}
	if got := s.ShedClasses(); len(got) != 1 || got[0] != "configuration" {
		t.Fatalf("ShedClasses = %v", got)
	}
}

func TestBudgetDenialForcesDegradation(t *testing.T) {
	app := &scriptApp{crashes: map[string]int{"poison": -1}}
	// The budget's floor of 2 restarts runs dry on the third attempt,
	// before degradeAfter (3) failed attempts can shed the class.
	s := newScripted(app, Config{Budget: resilience.NewBudget(2, 0)})
	if out := s.Submit(cfgEvent("poison", "1")); out != OutcomeDegraded {
		t.Fatalf("outcome = %v, want degraded", out)
	}
	if s.Metrics.BudgetDenials != 1 {
		t.Fatalf("BudgetDenials = %d, want 1", s.Metrics.BudgetDenials)
	}
	if s.Metrics.Restarts < 2 {
		t.Fatalf("Restarts = %d, want the budget's floor spent first", s.Metrics.Restarts)
	}
	if s.C.State != sdn.StateRunning {
		t.Fatalf("controller left %v, want running", s.C.State)
	}
}

func TestBackoffGrowsWithConsecutiveFailures(t *testing.T) {
	// The same deterministic-crash incident with and without a backoff
	// policy: 1ms of backoff is 1 tick, and each consecutive attempt
	// doubles it (8 + 16 + 32 across degradeAfter=3 attempts), so the
	// runs must differ by at least those 56 delay ticks.
	run := func(cfg Config) Metrics {
		s := newScripted(&scriptApp{crashes: map[string]int{"poison": -1}}, cfg)
		s.Submit(cfgEvent("poison", "1"))
		return s.Metrics
	}
	with := run(Config{Backoff: resilience.Policy{BaseDelay: 8 * time.Millisecond, MaxDelay: time.Second}})
	without := run(Config{})
	if with.Restarts != without.Restarts {
		t.Fatalf("restart counts diverged: %d vs %d", with.Restarts, without.Restarts)
	}
	if diff := with.RecoveryTicks - without.RecoveryTicks; diff < 56 {
		t.Fatalf("backoff added only %d recovery ticks, want >= 56", diff)
	}
}

func TestReportDivergenceVerifiedAfterRestart(t *testing.T) {
	app := &scriptApp{}
	s := newScripted(app, Config{})
	calls := 0
	ok := s.ReportDivergence("network-event", func() bool {
		calls++
		return calls >= 2 // first post-restart check still fails
	})
	if !ok {
		t.Fatal("transient divergence not healed")
	}
	if s.Metrics.Divergences != 1 || s.Metrics.Restarts != 2 {
		t.Fatalf("metrics = %+v", s.Metrics)
	}
	// A deterministic divergence fails verification until the class is
	// shed; reports against a shed class are then ignored.
	if s.ReportDivergence("mirror", func() bool { return false }) {
		t.Fatal("unverifiable divergence reported healed")
	}
	if !s.ClassShed("mirror") {
		t.Fatal("unverifiable divergence did not shed its class")
	}
	before := s.Metrics.Divergences
	s.ReportDivergence("mirror", func() bool { return false })
	if s.Metrics.Divergences != before {
		t.Fatal("divergence report against shed class not ignored")
	}
}

func TestWireErrorIsBoundedNotFatal(t *testing.T) {
	s := newScripted(&scriptApp{}, Config{})
	s.WireError(sdn.ErrNotRunning)
	if !s.Alive() || s.C.State != sdn.StateRunning {
		t.Fatal("wire error killed the supervised controller")
	}
	if s.Metrics.WireErrors != 1 || s.Metrics.RecoveryTicks != WireReconnectCost {
		t.Fatalf("metrics = %+v", s.Metrics)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	net := sdn.NewNetwork()
	net.AddSwitch(1, 4)
	app := sdn.NewL2Switch(nil)
	c := sdn.NewController(net, sdn.NewEnvironment(), app)
	c.Submit(cfgEvent("vlan.a", "100"))
	c.Submit(cfgEvent("vlan.b", "200"))
	sw, _ := net.Switch(1)
	sw.Table.Add(sdn.FlowEntry{Priority: 10, Match: openflow.Match{EthDst: 42}})

	cp := Capture(c)
	if cp.HighWater != 2 {
		t.Fatalf("HighWater = %d, want 2", cp.HighWater)
	}
	// Deep copy: post-capture mutations must not leak in.
	c.Config["vlan.a"] = "999"
	sw.Table.Clear()

	c.Restart(true)
	ticks := cp.Apply(c)
	if ticks <= 0 {
		t.Fatalf("Apply ticks = %d", ticks)
	}
	if c.Config["vlan.a"] != "100" || c.Config["vlan.b"] != "200" {
		t.Fatalf("config not restored: %v", c.Config)
	}
	if got := sw.Table.Entries(); len(got) != 1 || got[0].Match.EthDst != 42 {
		t.Fatalf("flow table not restored: %+v", got)
	}
}

func TestCheckpointedRestartCheaperThanColdReplay(t *testing.T) {
	// Build a long config log, then force one crash at the end under a
	// checkpointing supervisor and a cold one; the checkpointed restart
	// must replay only the tail and cost fewer ticks.
	run := func(checkpointEvery int) Metrics {
		app := &scriptApp{crashes: map[string]int{"boom": 1}}
		s := newScripted(app, Config{CheckpointEvery: checkpointEvery})
		for i := 0; i < 200; i++ {
			s.Submit(cfgEvent("vlan.a", "100"))
		}
		s.Submit(cfgEvent("boom", "1"))
		return s.Metrics
	}
	ck := run(50)
	cold := run(0)
	if ck.Checkpoints == 0 || ck.CheckpointRestores != 1 || cold.ColdRestores != 1 {
		t.Fatalf("restore counts: ck=%+v cold=%+v", ck, cold)
	}
	if ck.CheckpointRestoreTicks >= cold.ColdRestoreTicks {
		t.Fatalf("checkpoint restore (%d ticks) not cheaper than cold replay (%d ticks)",
			ck.CheckpointRestoreTicks, cold.ColdRestoreTicks)
	}
}

func TestReplaySkipsCrashingEvent(t *testing.T) {
	// A logged event that crashes during replay must be skipped on the
	// next pass instead of wedging recovery forever.
	app := &scriptApp{crashes: map[string]int{"late": 2}}
	s := newScripted(app, Config{})
	s.Submit(cfgEvent("vlan.a", "100"))
	s.Submit(cfgEvent("late", "1")) // crashes once live (heals), once in replay
	if s.C.State != sdn.StateRunning {
		t.Fatalf("state = %v", s.C.State)
	}
	s.C.State = sdn.StateCrashed // simulate an external crash
	s.Submit(cfgEvent("vlan.b", "200"))
	if s.C.State != sdn.StateRunning || s.C.Config["vlan.b"] != "200" {
		t.Fatalf("recovery wedged: state=%v config=%v", s.C.State, s.C.Config)
	}
	if s.C.Config["vlan.a"] != "100" {
		t.Fatalf("replay lost earlier config: %v", s.C.Config)
	}
}
