// Package recovery implements simplified models of the SDN fault-
// tolerance frameworks the paper surveys in Table VII, and an
// evaluator that measures — by actually injecting each taxonomy fault
// class and attempting recovery — which root causes, triggers and
// determinism classes each framework covers. The paper's qualitative
// conclusions become measurable here: most frameworks recover
// network-event-triggered and non-deterministic bugs; deterministic
// configuration/external-call bugs remain largely unsolved.
package recovery

import (
	"errors"
	"fmt"

	"sdnbugs/internal/faultlab"
	"sdnbugs/internal/openflow"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/taxonomy"
)

// Strategy is one recovery framework model.
type Strategy interface {
	// Name identifies the framework family.
	Name() string
	// Recover attempts to bring the lab's controller back to health
	// after a symptom was observed. It may restart, replay, filter
	// inputs, fail over, or repair the environment. It returns an
	// error only for harness-level problems — an unsuccessful recovery
	// is measured by the post-recovery workload, not signalled here.
	Recover(l *faultlab.Lab) error
}

// CrashRestart models watchdog-style restart recovery (the baseline
// every production deployment has): restart the controller process,
// dropping all volatile state and the event log.
type CrashRestart struct{}

var _ Strategy = CrashRestart{}

// Name implements Strategy.
func (CrashRestart) Name() string { return "crash-restart" }

// Recover implements Strategy.
func (CrashRestart) Recover(l *faultlab.Lab) error {
	l.NewIncarnations()
	l.C.Restart(false)
	return nil
}

// RecordReplay models record-and-replay recovery (the rollback-
// recovery the paper argues "will have limited applicability", §III):
// restart, then replay the recorded event log to rebuild state.
type RecordReplay struct{}

var _ Strategy = RecordReplay{}

// Name implements Strategy.
func (RecordReplay) Name() string { return "record-replay" }

// Recover implements Strategy. A replay that reproduces the crash is
// a failed recovery, not an error.
func (r RecordReplay) Recover(l *faultlab.Lab) error {
	log, err := l.Rebuild()
	if err != nil {
		return err
	}
	_, err = replay(l, log, keepAll)
	return err
}

// replay resubmits a rebuilt lab's event log, passing each event
// through keep first. Before each kept event it checks for a crash:
// once the controller has crashed — the replay reproduced the failure
// — it stops and reports crashed. Crashes from Submit itself are
// expected and ignored.
func replay(l *faultlab.Lab, log []sdn.Event, keep func(sdn.Event) (sdn.Event, bool)) (crashed bool, err error) {
	for _, recorded := range log {
		ev, ok := keep(recorded)
		if !ok {
			continue
		}
		if l.C.State == sdn.StateCrashed {
			return true, nil
		}
		ev.Seq = 0
		if err := l.C.Submit(ev); err != nil && !errors.Is(err, sdn.ErrCrash) {
			return false, fmt.Errorf("recovery: replay: %w", err)
		}
	}
	return false, nil
}

// keepAll is the identity filter: replay every event unchanged.
func keepAll(ev sdn.Event) (sdn.Event, bool) { return ev, true }

// dropIf is the filter that drops the events pred matches.
func dropIf(pred func(sdn.Event) bool) func(sdn.Event) (sdn.Event, bool) {
	return func(ev sdn.Event) (sdn.Event, bool) { return ev, !pred(ev) }
}

// EventTransform models STS/delta-debugging-style recovery: find the
// minimal input change that avoids the failure by replaying the log
// with candidate events removed, then keep filtering that input class.
// Its scope is network events only — exactly the focus the paper
// criticizes in existing tools.
type EventTransform struct {
	// Scope limits which event kinds the tool may drop; empty means
	// network events only (the surveyed tools' scope).
	Scope []sdn.EventKind
}

var _ Strategy = (*EventTransform)(nil)

// Name implements Strategy.
func (e *EventTransform) Name() string {
	if len(e.Scope) > 0 {
		return "event-transform-extended"
	}
	return "event-transform"
}

// transformCandidate is one input manipulation a delta debugger could
// converge on: a rewrite or drop of a recognizable input class.
type transformCandidate struct {
	name  string
	kind  sdn.EventKind
	apply func(sdn.Event) (sdn.Event, bool)
}

// transformCandidates returns the candidate set, most surgical first.
func transformCandidates() []transformCandidate {
	netPoison := faultlab.PoisonSignature(taxonomy.TriggerNetworkEvent)
	confPoison := faultlab.PoisonSignature(taxonomy.TriggerConfiguration)
	extPoison := faultlab.PoisonSignature(taxonomy.TriggerExternalCall)
	rebootPoison := faultlab.PoisonSignature(taxonomy.TriggerHardwareReboot)
	return []transformCandidate{
		{
			// Rewrite the poison packet so a different code path
			// handles it ("alter properties of the network event such
			// that different code paths and cases are explored", §V-A)
			// while the traffic itself still flows.
			name: "rewrite-poison-vlan", kind: sdn.EventNetwork,
			apply: func(ev sdn.Event) (sdn.Event, bool) {
				if !netPoison(ev) {
					return ev, true
				}
				pi, ok := ev.Msg.(*openflow.PacketIn)
				if !ok {
					return ev, true
				}
				pkt, err := sdn.DecodePacket(pi.Data)
				if err != nil {
					return ev, true
				}
				pkt.VlanID = 0
				rewritten := *pi
				rewritten.Data = sdn.EncodePacket(pkt)
				ev.Msg = &rewritten
				return ev, true
			},
		},
		{name: "drop-poison-packets", kind: sdn.EventNetwork, apply: dropIf(netPoison)},
		{name: "drop-poison-config", kind: sdn.EventConfig, apply: dropIf(confPoison)},
		{name: "drop-external-calls", kind: sdn.EventExternalCall, apply: dropIf(extPoison)},
		{name: "drop-reboots", kind: sdn.EventHardwareReboot, apply: dropIf(rebootPoison)},
	}
}

// Recover implements Strategy: it searches for an input transform that
// makes the recorded log replay cleanly, then keeps applying it.
func (e *EventTransform) Recover(l *faultlab.Lab) error {
	log, err := l.Rebuild()
	if err != nil {
		return err
	}
	for _, cand := range transformCandidates() {
		if !e.kindInScope(cand.kind) {
			continue
		}
		if _, err := l.Rebuild(); err != nil {
			return err
		}
		// A replay stopped by a crash leaves the controller crashed.
		if _, err := replay(l, log, cand.apply); err != nil {
			return err
		}
		if l.C.State != sdn.StateCrashed && l.C.Stats.MaxEventCost < 1000 {
			l.Filter = cand.apply
			return nil
		}
	}
	// No transform found: leave the last rebuilt controller as-is.
	return nil
}

func (e *EventTransform) kindInScope(k sdn.EventKind) bool {
	if len(e.Scope) == 0 {
		return k == sdn.EventNetwork
	}
	for _, s := range e.Scope {
		if s == k {
			return true
		}
	}
	return false
}

// Failover models Ravana/SCL-style replicated controllers with
// exactly-once event replay: promote a replica and replay the event
// log to it. The replica (the rebuilt lab: fresh incarnation, same
// code) runs the same bugs, so its recovery is RecordReplay's; a
// replica that hits the same deterministic bug is a failed recovery,
// not an error.
type Failover struct{ RecordReplay }

var _ Strategy = Failover{}

// Name implements Strategy.
func (Failover) Name() string { return "replicated-failover" }

// EnvironmentFix models dependency/environment repair (the direction
// the paper says SDN tooling lacks; cf. Lock-in-Pop outside SDN):
// restore external services to the versions the controller expects,
// then restart.
type EnvironmentFix struct{}

var _ Strategy = EnvironmentFix{}

// Name implements Strategy.
func (EnvironmentFix) Name() string { return "environment-fix" }

// Recover implements Strategy.
func (EnvironmentFix) Recover(l *faultlab.Lab) error {
	for _, f := range l.Faults {
		for svc, v := range f.ExpectedEnv() {
			l.C.Env.Versions[svc] = v
		}
	}
	l.NewIncarnations()
	l.C.Restart(false)
	return nil
}

// ConfigRollback models configuration-rollback recovery: restart and
// replay the log with configuration changes that failed validation (or
// preceded the failure) reverted, and keep rejecting that stanza.
type ConfigRollback struct{}

var _ Strategy = ConfigRollback{}

// Name implements Strategy.
func (ConfigRollback) Name() string { return "config-rollback" }

// Recover implements Strategy.
func (ConfigRollback) Recover(l *faultlab.Lab) error {
	log, err := l.Rebuild()
	if err != nil {
		return err
	}
	rollback := dropIf(faultlab.PoisonSignature(taxonomy.TriggerConfiguration))
	crashed, err := replay(l, log, rollback)
	if err != nil || crashed {
		return err
	}
	l.Filter = rollback
	return nil
}

// StandardStrategies returns the framework models evaluated for
// Table VII.
func StandardStrategies() []Strategy {
	return []Strategy{
		CrashRestart{},
		RecordReplay{},
		&EventTransform{},
		Failover{},
		EnvironmentFix{},
		ConfigRollback{},
	}
}

// PredictiveRejuvenation models the metrics-based failure prediction
// the paper calls for ("we may predict these crashes by analyzing
// metrics", §IV) combined with classic software rejuvenation: a
// monitor watches the controller's processed-event volume — the
// resource-pressure proxy behind load and leak failures — and restarts
// the controller proactively before the predicted crash point.
type PredictiveRejuvenation struct{}

// rejuvenationBudget is the per-incarnation event volume after which
// the predictor fires, below the standard suite's leak and load
// thresholds.
const rejuvenationBudget = 7

var _ Strategy = (*PredictiveRejuvenation)(nil)

// Name implements Strategy.
func (*PredictiveRejuvenation) Name() string { return "predictive-rejuvenation" }

// Recover implements Strategy: restart once, then keep the predictor
// armed for all future traffic.
func (p *PredictiveRejuvenation) Recover(l *faultlab.Lab) error {
	l.NewIncarnations()
	l.C.Restart(false)
	l.Guard = func(c *sdn.Controller) bool {
		return c.Stats.EventsProcessed >= rejuvenationBudget
	}
	return nil
}
