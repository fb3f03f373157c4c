// Package supervise wraps the simulated SDN controller in a
// self-healing runtime: the supervisor pattern the paper's findings
// argue for. The taxonomy shows most controller failures are
// fail-stop crashes or stalls triggered by a specific input class
// (§IV, Table VII), so a supervisor that (a) probes liveness and
// readiness with the taxonomy's symptom detectors, (b) restarts with
// exponential backoff under a restart budget, (c) resumes from
// periodic checkpoints instead of replaying the whole event log, and
// (d) degrades gracefully by shedding the offending event class when
// restarts keep failing, converts those failures into bounded
// recovery time instead of outage.
//
// Everything is measured in the controller's logical ticks and every
// decision is deterministic, so supervised runs are byte-identical at
// a fixed seed — the property the sustained fault-injection campaign
// (internal/faultlab, experiment E22) asserts.
package supervise

import (
	"time"

	"sdnbugs/internal/metrics"
	"sdnbugs/internal/resilience"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/taxonomy"
)

// Logical-tick costs of supervisor actions. One millisecond of
// resilience.Policy backoff maps to one tick, keeping the two layers'
// units aligned without wall-clock sleeps.
const (
	// RestartCost is the fixed tick cost of one controller restart
	// (process re-exec, reconnects, feature re-sync).
	RestartCost = 25
	// CheckpointCost is the tick overhead of capturing one checkpoint.
	CheckpointCost = 2
	// WireReconnectCost is the tick cost of tearing down and
	// re-establishing one switch connection after a wire-level fault.
	WireReconnectCost = 5
)

// Probe and degradation constants.
const (
	// perfFactor flags a performance regression when the windowed mean
	// cost exceeds perfFactor × BaselineMeanCost, matching the fault
	// lab's detector.
	perfFactor = 4
	// perfWindow is how many recent event costs the perf probe
	// averages over.
	perfWindow = 16
	// degradeAfter is how many consecutive failed recovery attempts a
	// single event class gets before the supervisor sheds it.
	degradeAfter = 3
)

// Config tunes a Supervisor. The zero value is usable: no perf probe,
// no checkpointing, no budget.
type Config struct {
	// BaselineMeanCost is the healthy mean event cost the performance
	// probe compares against; 0 disables the perf probe.
	BaselineMeanCost float64
	// Backoff shapes restart delays. Only the deterministic Backoff
	// ceiling is used — never the jittered Delay — so supervised runs
	// replay exactly.
	Backoff resilience.Policy
	// Budget, when set, bounds total restarts: every processed event
	// deposits, every restart withdraws. A dry budget stops restarts
	// and sheds the offending class instead.
	Budget *resilience.Budget
	// CheckpointEvery captures a checkpoint every N processed events;
	// 0 disables checkpointing, making every restart a cold replay.
	CheckpointEvery int
	// Classify buckets events into the classes degradation sheds;
	// defaults to EventKind.String(). Finer classifiers (e.g. the fault
	// lab's poison signatures) shed more surgically.
	Classify func(sdn.Event) string
	// OnRestart runs immediately before every supervised restart; the
	// fault lab advances fault incarnations here.
	OnRestart func()
	// Failover, when set, runs as the last resort before degradation:
	// if the restart budget is exhausted the supervisor offers the
	// incident (and the unprocessed retry event, when there is one) to
	// the hook instead of shedding. Returning true means another
	// replica took over — the cluster layer re-homes the event on the
	// new primary — and the incident counts as healed here.
	Failover func(retry *sdn.Event) bool
	// OnShed runs after a class is newly shed — the automatic repair
	// loop's trigger: it synthesizes candidate patches for the shed
	// class, validates them, and calls LiftShed on success. The hook
	// must not submit events.
	OnShed func(class string)
	// Metrics, when set, receives live observability counters and
	// histograms (restarts, probe firings, checkpoint/restore
	// timings) under supervise_* names. Metrics never influence
	// supervision decisions, so wiring a registry keeps runs
	// byte-identical.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Classify == nil {
		c.Classify = func(ev sdn.Event) string { return ev.Kind.String() }
	}
	return c
}

// Outcome is the supervised fate of one submitted event.
type Outcome int

// Outcome values.
const (
	// OutcomeProcessed: handled cleanly.
	OutcomeProcessed Outcome = iota
	// OutcomeHealed: a failure was detected and recovered; the event
	// counts as processed.
	OutcomeHealed
	// OutcomeShed: dropped because its class is degraded.
	OutcomeShed
	// OutcomeDegraded: this event triggered repeated failures and its
	// class was shed; the event itself was dropped.
	OutcomeDegraded
	// OutcomeLost: dropped without a shedding decision (never produced
	// by a supervised submit; campaigns use it for unsupervised runs).
	OutcomeLost
)

func (o Outcome) String() string {
	switch o {
	case OutcomeProcessed:
		return "processed"
	case OutcomeHealed:
		return "healed"
	case OutcomeShed:
		return "shed"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeLost:
		return "lost"
	default:
		return "unknown"
	}
}

// Metrics aggregates a supervised run. All counters are logical (event
// counts and ticks), so two runs at the same seed produce identical
// metrics.
type Metrics struct {
	EventsOffered   int
	EventsProcessed int // includes healed
	EventsHealed    int
	EventsShed      int
	EventsLost      int

	Incidents       int // detected failures (probe or divergence report)
	FailStops       int
	Stalls          int
	PerfRegressions int
	Divergences     int

	Restarts      int
	Degradations  int // classes shed
	ShedLifts     int // sheds lifted by a validated repair
	BudgetDenials int
	Failovers     int // incidents handed to the Failover hook

	Checkpoints            int
	CheckpointRestores     int
	ColdRestores           int
	CheckpointRestoreTicks int
	ColdRestoreTicks       int

	UptimeTicks   int
	RecoveryTicks int

	WireErrors int
}

// EventAvailability is the fraction of offered events that were
// processed (healed included; shed and lost are unavailability).
func (m Metrics) EventAvailability() float64 {
	if m.EventsOffered == 0 {
		return 1
	}
	return float64(m.EventsProcessed) / float64(m.EventsOffered)
}

// TimeAvailability is uptime over total logical time.
func (m Metrics) TimeAvailability() float64 {
	total := m.UptimeTicks + m.RecoveryTicks
	if total == 0 {
		return 1
	}
	return float64(m.UptimeTicks) / float64(total)
}

// MTTR is the mean recovery ticks per detected incident.
func (m Metrics) MTTR() float64 {
	if m.Incidents == 0 {
		return 0
	}
	return float64(m.RecoveryTicks) / float64(m.Incidents)
}

// Supervisor is the self-healing runtime around one controller. It is
// not safe for concurrent use: the controller model itself is
// single-threaded logical time.
type Supervisor struct {
	C       *sdn.Controller
	Metrics Metrics

	cfg Config
	// shed marks degraded event classes.
	shed map[string]bool
	// consec counts consecutive failed recovery attempts per class;
	// reset by a clean success of that class.
	consec map[string]int
	// window holds the last perfWindow event costs for the perf probe.
	window []int
	// cp is the latest checkpoint (nil until the first capture).
	cp *Checkpoint
	// sinceCheckpoint counts processed events since the last capture.
	sinceCheckpoint int
}

// New wraps a controller. The controller must be running.
func New(c *sdn.Controller, cfg Config) *Supervisor {
	return &Supervisor{
		C:      c,
		cfg:    cfg.withDefaults(),
		shed:   make(map[string]bool),
		consec: make(map[string]int),
	}
}

// count increments a registry counter when observability is wired.
func (s *Supervisor) count(name string) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(name).Inc()
	}
}

// observe records a registry histogram sample (logical ticks) when
// observability is wired.
func (s *Supervisor) observe(name string, ticks int) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Histogram(name).Observe(float64(ticks))
	}
}

// Alive reports process liveness (the controller is not crashed).
func (s *Supervisor) Alive() bool { return s.C.State != sdn.StateCrashed }

// ClassShed reports whether an event class has been degraded away.
func (s *Supervisor) ClassShed(class string) bool { return s.shed[class] }

// ShedClasses returns the degraded classes in sorted order.
func (s *Supervisor) ShedClasses() []string {
	out := make([]string, 0, len(s.shed))
	for c := range s.shed {
		out = append(out, c)
	}
	sortStrings(out)
	return out
}

// LiftShed re-admits a shed event class and returns true; it returns
// false when the class was not shed. Shed state is deliberately
// sticky everywhere else: budget deposits, restarts, and checkpoint
// restores never un-shed a class (a deterministic poison would
// re-trigger the moment its class flowed again), so the only way back
// is an explicit lift by a validated repair (internal/repair). The
// class's failure streak resets — post-repair, it starts clean.
func (s *Supervisor) LiftShed(class string) bool {
	if !s.shed[class] {
		return false
	}
	delete(s.shed, class)
	delete(s.consec, class)
	s.Metrics.ShedLifts++
	s.count("supervise_shed_lifts_total")
	return true
}

// Filter is the degradation hook, shaped for faultlab.Lab.Filter:
// events of shed classes are dropped (and accounted) before they reach
// the controller.
func (s *Supervisor) Filter(ev sdn.Event) (sdn.Event, bool) {
	if s.shed[s.cfg.Classify(ev)] {
		s.Metrics.EventsOffered++
		s.Metrics.EventsShed++
		return ev, false
	}
	return ev, true
}

// Submit runs one event under supervision: process, probe, and — on a
// detected failure — heal by restarting (with backoff and budget) and
// retrying, falling back to shedding the event's class.
func (s *Supervisor) Submit(ev sdn.Event) Outcome {
	s.Metrics.EventsOffered++
	class := s.cfg.Classify(ev)
	if s.shed[class] {
		s.Metrics.EventsShed++
		return OutcomeShed
	}
	logLen := len(s.C.Log)
	cost := s.runEvent(ev, false)
	s.pushCost(cost)
	h := s.Probe()
	if h.Ready {
		s.Metrics.UptimeTicks += cost
		s.noteSuccess(class)
		s.Metrics.EventsProcessed++
		return OutcomeProcessed
	}
	s.Metrics.RecoveryTicks += cost
	s.noteSymptom(h.Symptom)
	// Fail-stop means the event's effect was lost: retry it after the
	// restart. Stalls and perf regressions processed the event (slowly);
	// only the condition needs clearing. An event submitted to an
	// already-crashed controller never reached the log, so its retry
	// must go through Submit (which logs) rather than Reprocess —
	// otherwise the healed event would be missing from the log and
	// replication downstream of it would silently diverge.
	// The copy is made on this branch only, so a healthy Submit never
	// moves its event to the heap.
	var retry *sdn.Event
	retryLogged := true
	if h.Symptom == taxonomy.SymptomFailStop {
		failed := ev
		retry = &failed
		retryLogged = len(s.C.Log) > logLen
	}
	if s.heal(class, retry, retryLogged, nil) {
		s.Metrics.EventsHealed++
		s.Metrics.EventsProcessed++
		return OutcomeHealed
	}
	s.Metrics.EventsShed++
	return OutcomeDegraded
}

// ReportDivergence feeds the supervisor a byzantine divergence its
// probes cannot see (e.g. a silently swallowed broadcast found by a
// spot check). verify, when set, re-runs the check after each restart;
// a deterministic divergence therefore fails verification until the
// class is shed. Reports against an already-shed class are ignored.
// It returns true when a restart cleared the divergence.
func (s *Supervisor) ReportDivergence(class string, verify func() bool) bool {
	if s.shed[class] {
		return false
	}
	s.Metrics.Divergences++
	s.count("supervise_divergences_total")
	return s.heal(class, nil, true, verify)
}

// WireError records a connection-layer fault the session layer
// surfaced (garbage frame, truncated read, handshake stall, dropped
// connection). The supervisor's answer is a bounded reconnect — never
// death.
func (s *Supervisor) WireError(err error) {
	_ = err
	s.Metrics.WireErrors++
	s.Metrics.RecoveryTicks += WireReconnectCost
	s.count("supervise_wire_errors_total")
}

// heal is the recovery loop for one incident: restart (budgeted, with
// backoff growing in the class's consecutive-failure count), then
// either retry the failed event, re-run the caller's verification, or
// trust the probe. A class that keeps failing past degradeAfter
// attempts is shed.
func (s *Supervisor) heal(class string, retry *sdn.Event, retryLogged bool, verify func() bool) bool {
	s.Metrics.Incidents++
	for {
		s.consec[class]++
		if s.consec[class] > degradeAfter {
			s.degrade(class)
			return false
		}
		if s.cfg.Budget != nil && !s.cfg.Budget.Withdraw() {
			s.Metrics.BudgetDenials++
			if s.cfg.Failover != nil && s.cfg.Failover(retry) {
				// Another replica took over; the incident is resolved
				// without degrading the class on this (deposed) one.
				s.Metrics.Failovers++
				s.count("supervise_failovers_total")
				return true
			}
			s.degrade(class)
			return false
		}
		s.restart(s.consec[class] - 1)
		if retry != nil {
			var cost int
			if retryLogged {
				cost = s.runEvent(*retry, true)
			} else {
				// First successful append wins; later loop iterations
				// must not log the event twice.
				before := len(s.C.Log)
				cost = s.runEvent(*retry, false)
				retryLogged = len(s.C.Log) > before
			}
			s.Metrics.RecoveryTicks += cost
			h := s.Probe()
			if h.Ready {
				return true
			}
			s.noteSymptom(h.Symptom)
			continue
		}
		if verify != nil && !verify() {
			continue
		}
		if s.Probe().Ready {
			return true
		}
	}
}

// degrade sheds a class and restores service if the incident left the
// controller down.
func (s *Supervisor) degrade(class string) {
	if !s.shed[class] {
		s.shed[class] = true
		s.Metrics.Degradations++
		s.count("supervise_degradations_total")
		if s.cfg.OnShed != nil {
			s.cfg.OnShed(class)
		}
	}
	if s.C.State != sdn.StateRunning {
		s.restart(0)
	}
}

// restart bounces the controller and accounts the downtime: fixed
// restart cost, deterministic backoff (ms→ticks), plus state recovery
// — checkpoint restore with tail replay when a checkpoint exists, full
// log replay otherwise.
func (s *Supervisor) restart(attempt int) {
	if s.cfg.OnRestart != nil {
		s.cfg.OnRestart()
	}
	s.C.Restart(true)
	s.window = s.window[:0]
	s.Metrics.Restarts++
	s.count("supervise_restarts_total")
	down := RestartCost
	if s.cfg.Backoff.BaseDelay > 0 {
		down += int(s.cfg.Backoff.Backoff(attempt) / time.Millisecond)
	}
	if s.cp != nil {
		t := RestartCost + s.cp.Apply(s.C) + s.replayConfig(s.cp.HighWater)
		s.Metrics.CheckpointRestores++
		s.Metrics.CheckpointRestoreTicks += t
		s.observe("supervise_checkpoint_restore_ticks", t)
		down += t - RestartCost
	} else {
		t := RestartCost + s.replayConfig(0)
		s.Metrics.ColdRestores++
		s.Metrics.ColdRestoreTicks += t
		s.observe("supervise_cold_restore_ticks", t)
		down += t - RestartCost
	}
	s.Metrics.RecoveryTicks += down
}

// replayConfig re-executes the logged configuration events from log
// index `from` to rebuild controller config state. Replay runs the
// same buggy code: an event that crashes the replay is skipped on the
// next pass (restart cost accounted), leaving the shedding decision to
// the heal loop.
func (s *Supervisor) replayConfig(from int) int {
	ticks := 0
	if from > len(s.C.Log) {
		from = len(s.C.Log)
	}
	skip := make(map[int]bool)
	// Each pass eliminates at least one crashing event; a partial
	// replay wiped by a crash-restart starts over without it.
	for pass := 0; pass < 8; pass++ {
		crashed := false
		for i := from; i < len(s.C.Log); i++ {
			ev := s.C.Log[i]
			if ev.Kind != sdn.EventConfig || skip[i] || s.shed[s.cfg.Classify(ev)] {
				continue
			}
			before := s.C.Stats.TotalCost
			_ = s.C.Reprocess(ev)
			ticks += s.C.Stats.TotalCost - before
			if s.C.State == sdn.StateCrashed {
				skip[i] = true
				crashed = true
				if s.cfg.OnRestart != nil {
					s.cfg.OnRestart()
				}
				s.C.Restart(true)
				s.Metrics.Restarts++
				ticks += RestartCost
				break
			}
		}
		if !crashed {
			break
		}
	}
	return ticks
}

// runEvent pushes one event through the controller and returns its
// tick cost. replays use Reprocess so the log is not re-recorded.
func (s *Supervisor) runEvent(ev sdn.Event, replay bool) int {
	before := s.C.Stats.TotalCost
	if replay {
		_ = s.C.Reprocess(ev)
	} else {
		_ = s.C.Submit(ev)
	}
	return s.C.Stats.TotalCost - before
}

// noteSuccess resets the class's failure streak, feeds the restart
// budget, and takes a periodic checkpoint.
func (s *Supervisor) noteSuccess(class string) {
	s.consec[class] = 0
	if s.cfg.Budget != nil {
		s.cfg.Budget.Deposit()
	}
	if s.cfg.CheckpointEvery > 0 {
		s.sinceCheckpoint++
		if s.sinceCheckpoint >= s.cfg.CheckpointEvery {
			s.sinceCheckpoint = 0
			s.cp = Capture(s.C)
			s.Metrics.Checkpoints++
			s.Metrics.UptimeTicks += CheckpointCost
			s.count("supervise_checkpoints_total")
		}
	}
}

func (s *Supervisor) noteSymptom(sym taxonomy.Symptom) {
	switch sym {
	case taxonomy.SymptomFailStop:
		s.Metrics.FailStops++
		s.count("supervise_probe_failstop_total")
	case taxonomy.SymptomByzantine:
		s.Metrics.Stalls++
		s.count("supervise_probe_stall_total")
	case taxonomy.SymptomPerformance:
		s.Metrics.PerfRegressions++
		s.count("supervise_probe_perf_total")
	}
}

func (s *Supervisor) pushCost(cost int) {
	if len(s.window) == perfWindow {
		// Slide in place: the window never outgrows its first array.
		copy(s.window, s.window[1:])
		s.window = s.window[:len(s.window)-1]
	}
	s.window = append(s.window, cost)
}

// sortStrings is a dependency-free insertion sort (the slices here are
// a handful of class names).
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
