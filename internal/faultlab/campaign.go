package faultlab

import (
	"fmt"
	"math/rand"

	"sdnbugs/internal/metrics"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/supervise"
	"sdnbugs/internal/taxonomy"
)

// CampaignSuite returns the standard fault matrix re-tuned for a
// sustained run: the memory/load budgets scale up from "crash within
// one short workload" so leaks and load collapses recur throughout an
// N-thousand-event campaign instead of dominating its first moments.
func CampaignSuite(seed int64) []*Fault {
	faults := StandardSuite(seed)
	for _, f := range faults {
		switch f.Spec.Cause {
		case taxonomy.CauseMemory:
			f.Spec.MemoryBudget = 150
		case taxonomy.CauseLoad:
			f.Spec.MemoryBudget = 400
		}
	}
	return faults
}

// ClassifyEvent buckets events into degradation classes using the
// taxonomy's poison signatures, so a supervisor sheds surgically: the
// poisoned sub-class goes while its healthy siblings keep flowing.
func ClassifyEvent(ev sdn.Event) string {
	switch ev.Kind {
	case sdn.EventNetwork:
		if PoisonSignature(taxonomy.TriggerNetworkEvent)(ev) {
			return "network-event/mirror-vlan"
		}
		return "network-event"
	case sdn.EventConfig:
		if PoisonSignature(taxonomy.TriggerConfiguration)(ev) {
			return "configuration/multicast"
		}
		return "configuration"
	case sdn.EventExternalCall:
		return "external-call/" + ev.Service
	case sdn.EventHardwareReboot:
		return "hardware-reboot"
	}
	return ev.Kind.String()
}

// DeterministicPoisonClasses are the classes a supervisor may
// legitimately shed under the campaign suite: each corresponds to a
// deterministic fault's poison signature. Shedding anything else
// (e.g. plain "network-event", whose faults are non-deterministic or
// recoverable) would throw away healthy traffic.
func DeterministicPoisonClasses() []string {
	return []string{
		"configuration/multicast",
		"external-call/atomix",
		"external-call/influxdb",
		"hardware-reboot",
		"network-event/mirror-vlan",
	}
}

// buildSchedule derives the interleaved fault/workload schedule from
// the seed alone — independent of run dynamics, so supervised and
// unsupervised runs face the identical input sequence.
func buildSchedule(seed int64, n int, hosts, dpids []uint64) Schedule {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	slots := make([]Slot, 0, n)
	for i := 0; i < n; i++ {
		var kind SlotKind
		a, b := 0, 0
		switch r := rng.Float64(); {
		case r < 0.16:
			kind, a, b = SlotConfig, rng.Intn(40), rng.Intn(3000)
		case r < 0.19:
			kind, a = SlotPoisonConfig, rng.Intn(8)
		case r < 0.30:
			kind, a = SlotExternal, rng.Intn(len(services))
		case r < 0.34:
			kind, a = SlotReboot, rng.Intn(len(dpids))
		case r < 0.70:
			kind, a, b = SlotUnicast, rng.Intn(len(hosts)), rng.Intn(len(hosts))
			for b == a {
				b = rng.Intn(len(hosts))
			}
		case r < 0.84:
			kind, a = SlotBroadcast, rng.Intn(len(hosts))
		case r < 0.92:
			kind, a = SlotMirrorBroadcast, rng.Intn(len(hosts))
		default:
			kind, a = SlotWireFault, rng.Intn(int(numWireFaultKinds))
		}
		slots = append(slots, NewSlot(kind, a, b, hosts, dpids))
	}
	return Schedule{Slots: slots, WireSeed: seed*104729 + 5}
}

// CampaignConfig parameterizes one sustained fault-injection run.
type CampaignConfig struct {
	Seed int64
	// Events is the schedule length (default 1500 slots; traffic slots
	// fan out into multiple controller events).
	Events int
	// Supervised selects the self-healing runtime; false runs the
	// crash-restart watchdog baseline.
	Supervised bool
	// CheckpointEvery (supervised) is the checkpoint cadence in
	// processed events; 0 makes every restart a cold full-log replay.
	CheckpointEvery int
	// Metrics, when set, receives live campaign observability:
	// schedule slots, wire faults, watchdog restarts, plus the
	// supervisor's supervise_* counters and restore-timing histograms
	// on supervised runs. Purely observational — results stay
	// byte-identical.
	Metrics *metrics.Registry
	// Program, when set (supervised only), interposes a patchable
	// flow-rule program ahead of the supervisor's shed filter: repairs
	// rewrite or clamp poison inputs before they reach the controller.
	// Clamp counters reset on every restart (per-incarnation
	// semantics, like fault budgets).
	Program *sdn.Program
	// OnShed, when set (supervised only), is forwarded to the
	// supervisor and fires when a class is newly shed — the automatic
	// repair loop's trigger.
	OnShed func(class string)
}

// watchdogEvery is the unsupervised watchdog's liveness-check period
// in schedule slots — the detection lag during which a crashed
// controller silently loses events.
const watchdogEvery = 8

// count increments a campaign counter when observability is wired.
func (c CampaignConfig) count(name string) {
	if c.Metrics != nil {
		c.Metrics.Counter(name).Inc()
	}
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Events <= 0 {
		c.Events = 1500
	}
	return c
}

// CampaignResult aggregates one campaign run. Every field is logical
// (counts and ticks) and every slice is sorted, so results are
// byte-identical across runs at the same seed.
type CampaignResult struct {
	Mode   string
	Events int

	Offered   int
	Processed int
	Healed    int
	Shed      int
	Lost      int

	Incidents       int
	FailStops       int
	Stalls          int
	PerfRegressions int
	Divergences     int

	Restarts      int
	Degradations  int
	BudgetDenials int

	Checkpoints            int
	CheckpointRestores     int
	ColdRestores           int
	CheckpointRestoreTicks int
	ColdRestoreTicks       int

	UptimeTicks   int
	DowntimeTicks int

	WireFaults int
	WireErrors int
	WireKills  int

	BroadcastProbes   int
	BroadcastFailures int

	// ProgramRewrites/ProgramDrops count flow-rule program decisions
	// when a repair program is interposed (see CampaignConfig.Program);
	// program drops are accounted as offered-and-shed.
	ProgramRewrites int
	ProgramDrops    int

	ShedClasses []string
	FinalState  string
}

// ratio is num/den, or empty when den is zero.
func ratio(num, den int, empty float64) float64 {
	if den == 0 {
		return empty
	}
	return float64(num) / float64(den)
}

// EventAvailability is the fraction of offered events processed.
func (r CampaignResult) EventAvailability() float64 { return ratio(r.Processed, r.Offered, 1) }

// TimeAvailability is uptime over total logical time.
func (r CampaignResult) TimeAvailability() float64 {
	return ratio(r.UptimeTicks, r.UptimeTicks+r.DowntimeTicks, 1)
}

// MTTR is mean downtime ticks per detected incident.
func (r CampaignResult) MTTR() float64 { return ratio(r.DowntimeTicks, r.Incidents, 0) }

// MeanCheckpointRestoreTicks is the mean recovery cost of a
// checkpoint-based restart (0 when none happened).
func (r CampaignResult) MeanCheckpointRestoreTicks() float64 {
	return ratio(r.CheckpointRestoreTicks, r.CheckpointRestores, 0)
}

// MeanColdRestoreTicks is the mean recovery cost of a cold full-log
// replay restart (0 when none happened).
func (r CampaignResult) MeanColdRestoreTicks() float64 {
	return ratio(r.ColdRestoreTicks, r.ColdRestores, 0)
}

// Fingerprint is a canonical serialization for byte-identity checks
// across runs at the same seed.
func (r CampaignResult) Fingerprint() string {
	return fmt.Sprintf("%+v", r)
}

// foldSupervisor overwrites the fields a supervisor accounts — event
// outcomes, incidents, recoveries, time, wire errors, the shed set and
// the controller state — from its live metrics.
func (r *CampaignResult) foldSupervisor(sup *supervise.Supervisor) {
	m := sup.Metrics
	r.Offered = m.EventsOffered
	r.Processed = m.EventsProcessed
	r.Healed = m.EventsHealed
	r.Shed = m.EventsShed
	r.Lost = m.EventsLost
	r.Incidents = m.Incidents
	r.FailStops = m.FailStops
	r.Stalls = m.Stalls
	r.PerfRegressions = m.PerfRegressions
	r.Divergences = m.Divergences
	r.Restarts = m.Restarts
	r.Degradations = m.Degradations
	r.BudgetDenials = m.BudgetDenials
	r.Checkpoints = m.Checkpoints
	r.CheckpointRestores = m.CheckpointRestores
	r.ColdRestores = m.ColdRestores
	r.CheckpointRestoreTicks = m.CheckpointRestoreTicks
	r.ColdRestoreTicks = m.ColdRestoreTicks
	r.UptimeTicks = m.UptimeTicks
	r.DowntimeTicks = m.RecoveryTicks
	r.WireErrors = m.WireErrors
	r.ShedClasses = sup.ShedClasses()
	r.FinalState = sup.C.State.String()
}

// RunCampaign executes one sustained fault-injection campaign: the
// full CampaignSuite armed at once over a seed-deterministic schedule
// of interleaved management events, traffic, poison inputs, and
// wire-level faults.
func RunCampaign(cfg CampaignConfig) (CampaignResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Supervised {
		// The supervised path is a single-epoch Session — the same
		// runtime the repair loop drives across multiple epochs.
		sess, err := NewSession(cfg)
		if err != nil {
			return CampaignResult{}, err
		}
		return sess.PlayEpoch()
	}
	lab, err := NewLab(CampaignSuite(cfg.Seed)...)
	if err != nil {
		return CampaignResult{}, err
	}
	hosts := lab.C.Net.Hosts()
	sched := buildSchedule(cfg.Seed, cfg.Events, hosts, lab.C.Net.Switches())
	rt := &watchdogRuntime{lab: lab, cfg: cfg, full: len(hosts) - 1,
		res: CampaignResult{Mode: "unsupervised", Events: len(sched.Slots)}}
	err = NewPlayer(rt, sched).Play()
	rt.res.FinalState = lab.C.State.String()
	return rt.res, err
}

// watchdogRuntime is the fail-fast baseline: a watchdog that only
// notices crashes (with detection lag), cold crash-restarts that drop
// all state, no stall or divergence handling, and wire faults that
// kill the process outright.
type watchdogRuntime struct {
	lab        *Lab
	cfg        CampaignConfig
	res        CampaignResult
	full       int
	sinceCheck int
}

func (r *watchdogRuntime) Net() *sdn.Network { return r.lab.C.Net }

// Submit reserves the log region once per round, then accounts every
// event on its own.
func (r *watchdogRuntime) Submit(events []sdn.Event) {
	c := r.lab.C
	c.ReserveLog(len(events))
	for _, ev := range events {
		r.res.Offered++
		if c.State == sdn.StateCrashed {
			// Down and nobody noticed yet: the event is gone.
			r.res.Lost++
			r.res.DowntimeTicks++
			continue
		}
		before := c.Stats.TotalCost
		err := c.Submit(ev)
		cost := c.Stats.TotalCost - before
		if err != nil {
			// The event died with the controller.
			r.res.Lost++
			r.res.Incidents++
			r.res.FailStops++
			r.res.DowntimeTicks += cost
			continue
		}
		if c.State == sdn.StateStalled {
			// Frozen while "processing": the time was lost even though
			// the watchdog never notices a stall.
			r.res.Stalls++
			r.res.DowntimeTicks += cost
		} else {
			r.res.UptimeTicks += cost
		}
		r.res.Processed++
	}
}

// Slot plays the slot, then runs the watchdog: every watchdogEvery
// slots a crashed controller is cold-restarted.
func (r *watchdogRuntime) Slot(_ int, s Slot, play func(Slot) error) error {
	r.cfg.count("faultlab_campaign_slots_total")
	if err := play(s); err != nil {
		return err
	}
	r.sinceCheck++
	if r.sinceCheck < watchdogEvery {
		return nil
	}
	r.sinceCheck = 0
	if r.lab.C.State == sdn.StateCrashed {
		r.lab.NewIncarnations()
		r.lab.C.Restart(false)
		r.res.Restarts++
		r.res.ColdRestores++
		r.res.ColdRestoreTicks += supervise.RestartCost
		r.res.DowntimeTicks += supervise.RestartCost
		r.cfg.count("faultlab_watchdog_restarts_total")
	}
	return nil
}

// Wire is fail-fast: an unhandled wire error propagates up and kills
// the controller process.
func (r *watchdogRuntime) Wire(s Slot, rng *rand.Rand) error {
	r.res.WireFaults++
	r.cfg.count("faultlab_wire_faults_total")
	ferr, err := WireEpisode(s.Wire, rng)
	if err != nil {
		return err
	}
	if ferr != nil {
		r.res.WireErrors++
		r.res.WireKills++
		r.res.Incidents++
		r.lab.C.State = sdn.StateCrashed
	}
	return nil
}

// Probe counts a broadcast that missed a host as a failure.
func (r *watchdogRuntime) Probe(s Slot, flood func(Slot) int) {
	r.res.BroadcastProbes++
	if flood(s) < r.full {
		r.res.BroadcastFailures++
	}
}
