package faultlab

// Session is a live supervised campaign runtime — the substrate of
// the automatic repair loop (internal/repair, E25). Unlike
// RunCampaign, which builds and discards its runtime, a Session keeps
// the lab, supervisor, and fault incarnation state alive between
// schedule epochs, so a caller can: play an epoch (sheds accumulate),
// install a repaired flow-rule program, lift the repaired sheds on
// the *same* supervisor, and play another epoch to measure the
// repaired availability on live state. RunCampaign's supervised path
// runs on a single-epoch Session, so both share one code path.

import (
	"math/rand"
	"time"

	"sdnbugs/internal/resilience"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/supervise"
)

// newSupervisor attaches a self-healing supervisor with the campaigns'
// shared backoff, restart budget, and event classes to c.
func newSupervisor(c *sdn.Controller, cfg supervise.Config) *supervise.Supervisor {
	cfg.Backoff = resilience.Policy{BaseDelay: 2 * time.Millisecond, MaxDelay: 64 * time.Millisecond}
	cfg.Budget = resilience.NewBudget(64, 0.25)
	cfg.Classify = ClassifyEvent
	return supervise.New(c, cfg)
}

// Supervised is a supervised controller on a multi-fault lab with an
// optional flow-rule program ahead of the supervisor's shed filter —
// the runtime core the campaign Session and the perfuzz harness share.
type Supervised struct {
	Lab *Lab
	Sup *supervise.Supervisor

	program *sdn.Program
}

// NewSupervised arms faults on a fresh multi-fault lab and attaches a
// supervisor configured by cfg (checkpoint cadence, shed callback,
// metrics). Every restart advances the fault incarnations and resets
// the program's per-incarnation clamp counters.
func NewSupervised(faults []*Fault, program *sdn.Program, cfg supervise.Config) (*Supervised, error) {
	lab, err := NewMultiLab(faults)
	if err != nil {
		return nil, err
	}
	s := &Supervised{Lab: lab, program: program}
	cfg.BaselineMeanCost = lab.baselineMeanCost
	cfg.OnRestart = func() {
		lab.NewIncarnations()
		s.program.NewIncarnation()
	}
	s.Sup = newSupervisor(lab.C, cfg)
	// The graceful-degradation hook: shed classes die at the lab
	// filter, before they reach the controller.
	lab.Filter = s.Sup.Filter
	return s, nil
}

// SetProgram installs (or replaces) the flow-rule program — the repair
// loop installs the validated composed program here before lifting
// sheds.
func (s *Supervised) SetProgram(p *sdn.Program) { s.program = p }

// Net is the lab network.
func (s *Supervised) Net() *sdn.Network { return s.Lab.C.Net }

// Offer routes one event: program first (repairs rewrite or clamp
// poison inputs), then the supervisor's shed filter, then supervised
// submission. It returns the program's verdict and whether the event
// reached the supervisor.
func (s *Supervised) Offer(ev sdn.Event) (sdn.Verdict, bool) {
	verdict := sdn.VerdictPass
	if s.program != nil {
		if ev, verdict = s.program.Apply(ev); verdict == sdn.VerdictDropped {
			return verdict, false
		}
	}
	ev, keep := s.Lab.Filter(ev)
	if keep {
		s.Sup.Submit(ev)
	}
	return verdict, keep
}

// Wire plays one wire episode; a faulty one costs the supervisor a
// reconnect.
func (s *Supervised) Wire(sl Slot, rng *rand.Rand) error {
	ferr, err := WireEpisode(sl.Wire, rng)
	if err != nil {
		return err
	}
	if ferr != nil {
		s.Sup.WireError(ferr)
	}
	return nil
}

// SupervisorResult is a campaign result holding only the fields the
// supervisor accounts (see foldSupervisor); a Session's Snapshot adds
// its own slot counters on top.
func (s *Supervised) SupervisorResult() CampaignResult {
	var r CampaignResult
	r.foldSupervisor(s.Sup)
	return r
}

// Session holds one live supervised campaign runtime.
type Session struct {
	*Supervised

	cfg    CampaignConfig
	full   int
	player *Player

	// res accumulates the session-local counters (schedule slots, wire
	// faults, broadcast probes, program rewrites/drops) across epochs;
	// supervisor counters are read live at snapshot time.
	res CampaignResult
}

// NewSession builds a supervised campaign runtime: full CampaignSuite
// armed, self-healing supervisor attached, cfg.Program (if any)
// interposed ahead of the shed filter.
func NewSession(cfg CampaignConfig) (*Session, error) {
	cfg = cfg.withDefaults()
	sv, err := NewSupervised(CampaignSuite(cfg.Seed), cfg.Program, supervise.Config{
		CheckpointEvery: cfg.CheckpointEvery,
		OnShed:          cfg.OnShed,
		Metrics:         cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	hosts := sv.Net().Hosts()
	s := &Session{Supervised: sv, cfg: cfg, full: len(hosts) - 1}
	s.res.Mode = "supervised-cold"
	if cfg.CheckpointEvery > 0 {
		s.res.Mode = "supervised-checkpoint"
	}
	s.player = NewPlayer(s, buildSchedule(cfg.Seed, cfg.Events, hosts, sv.Net().Switches()))
	return s, nil
}

// PlayEpoch plays one full schedule epoch — the same seed-derived
// schedule every time, so epochs before and after a repair face the
// identical offered workload — and returns the cumulative result.
func (s *Session) PlayEpoch() (CampaignResult, error) {
	s.res.Events += s.cfg.Events
	err := s.player.Play()
	return s.Snapshot(), err
}

// Snapshot folds the live supervisor metrics into the session
// counters and returns the cumulative campaign result. Events the
// program dropped count as offered-and-shed: a repair that merely
// discards traffic buys no availability.
func (s *Session) Snapshot() CampaignResult {
	res := s.res
	res.foldSupervisor(s.Sup)
	res.Offered += res.ProgramDrops
	res.Shed += res.ProgramDrops
	return res
}

// Submit routes one pump round. The program, shed filter, and
// supervised submission run per event in order — a mid-round shed or
// restart must affect the very next event — so only the controller's
// log growth is amortized into a single pre-reserved region per round.
func (s *Session) Submit(events []sdn.Event) {
	s.Sup.C.ReserveLog(len(events))
	for _, ev := range events {
		switch verdict, _ := s.Offer(ev); verdict {
		case sdn.VerdictDropped:
			s.res.ProgramDrops++
			s.cfg.count("faultlab_program_drops_total")
		case sdn.VerdictRewritten:
			s.res.ProgramRewrites++
			s.cfg.count("faultlab_program_rewrites_total")
		}
	}
}

// Slot counts the slot and plays it.
func (s *Session) Slot(_ int, sl Slot, play func(Slot) error) error {
	s.cfg.count("faultlab_campaign_slots_total")
	return play(sl)
}

// Wire counts the wire fault and plays its episode.
func (s *Session) Wire(sl Slot, rng *rand.Rand) error {
	s.res.WireFaults++
	s.cfg.count("faultlab_wire_faults_total")
	return s.Supervised.Wire(sl, rng)
}

// Probe feeds a broadcast that missed a host into the supervisor as a
// Byzantine divergence the probes can't see, with a re-flood as its
// spot-check — unless the class is already shed. A plain broadcast
// reads the shed state after its pump, a mirror broadcast before it.
func (s *Session) Probe(sl Slot, flood func(Slot) int) {
	s.res.BroadcastProbes++
	class := "network-event"
	if sl.Kind == SlotMirrorBroadcast {
		class = "network-event/mirror-vlan"
	}
	shed := sl.Kind == SlotMirrorBroadcast && s.Sup.ClassShed(class)
	reached := flood(sl)
	if sl.Kind == SlotBroadcast {
		shed = s.Sup.ClassShed(class)
	}
	if reached < s.full && !shed {
		s.res.BroadcastFailures++
		s.Sup.ReportDivergence(class, func() bool { return flood(sl) >= s.full })
	}
}
