// Package faultlab implements the taxonomy-driven fault injector the
// paper motivates ("our taxonomy provides the building blocks for
// designing representative and informed fault-injectors for testing
// SDN controllers", §I). Each injectable fault is a root-cause class
// from Table I realized as controller middleware or environment
// tampering; the standard suite mirrors the concrete bugs the paper
// cites (FAUCET-1623, CORD-2470, FAUCET-355, VOL-549, CORD-1734,
// ONOS-4859, ONOS-5992).
package faultlab

import (
	"fmt"
	"math/rand"
	"strings"

	"sdnbugs/internal/openflow"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/taxonomy"
)

// PoisonVLAN is the VLAN tag whose broadcast frames hit the buggy
// code path of deterministic network-event faults (the analog of
// FAUCET-1623's mirrored ports).
const PoisonVLAN uint16 = 13

// Spec describes one injectable bug in taxonomy terms.
type Spec struct {
	// Name labels the fault, after the real bug it models.
	Name string
	// Cause, Trigger, Symptom classify it per Table I.
	Cause   taxonomy.RootCause
	Trigger taxonomy.Trigger
	Symptom taxonomy.Symptom
	// Deterministic bugs activate on a fixed input signature; non-
	// deterministic ones activate at most once per controller
	// incarnation, with probability ActivationP (a race that does or
	// does not manifest for this run's interleaving).
	Deterministic bool
	// ActivationP is the probability a non-deterministic fault recurs
	// in incarnations after the first (default 0.2).
	ActivationP float64
	// MemoryBudget is, for memory faults, the number of matching
	// events before the leak exhausts the heap (default 6).
	MemoryBudget int
}

// Fault is an armed bug: middleware plus optional environment
// tampering. A Fault persists across controller restarts — it is a bug
// in the code, not in the state.
type Fault struct {
	Spec Spec

	rng *rand.Rand
	// incarnation state (reset on controller restart via Middleware
	// observing sdn restarts is not possible; the lab calls NewIncarnation).
	activeThisIncarnation bool
	decided               bool
	leaked                int
	// incarnation counts controller (re)starts. A non-deterministic
	// race always manifests in incarnation 0 (the study examines bugs
	// that did happen) and recurs with ActivationP afterwards — the
	// adversarial interleaving is unlikely to repeat.
	incarnation int

	// Disabled turns the fault off entirely (used to verify detectors
	// against a healthy baseline).
	Disabled bool

	// env is the armed environment for ecosystem faults; the fault is
	// live only while the deployed versions differ from expectedEnv
	// (fixing the environment genuinely disarms it).
	env         *sdn.Environment
	expectedEnv map[string]int
}

// NewFault arms a spec with a seeded RNG.
func NewFault(spec Spec, seed int64) *Fault {
	if spec.ActivationP <= 0 {
		spec.ActivationP = 0.2
	}
	if spec.MemoryBudget <= 0 {
		spec.MemoryBudget = 6
	}
	return &Fault{Spec: spec, rng: rand.New(rand.NewSource(seed))}
}

// NewIncarnation informs the fault that the controller restarted: a
// non-deterministic race gets a fresh chance (not) to manifest, and a
// leak starts from zero.
func (f *Fault) NewIncarnation() {
	f.resetState()
	f.incarnation++
}

// resetState clears per-incarnation state without advancing the
// incarnation counter (used by the lab between baseline and first
// faulty run).
func (f *Fault) resetState() {
	f.decided = false
	f.activeThisIncarnation = false
	f.leaked = 0
}

// triggerKind maps taxonomy triggers to controller event kinds.
func triggerKind(t taxonomy.Trigger) sdn.EventKind {
	switch t {
	case taxonomy.TriggerConfiguration:
		return sdn.EventConfig
	case taxonomy.TriggerExternalCall:
		return sdn.EventExternalCall
	case taxonomy.TriggerNetworkEvent:
		return sdn.EventNetwork
	case taxonomy.TriggerHardwareReboot:
		return sdn.EventHardwareReboot
	default:
		return sdn.EventUnknown
	}
}

// signatureMatch is the deterministic activation condition: the edge-
// case input the buggy code mishandles.
func (f *Fault) signatureMatch(ev sdn.Event) bool {
	if ev.Kind != triggerKind(f.Spec.Trigger) {
		return false
	}
	switch ev.Kind {
	case sdn.EventNetwork:
		return isMirrorBroadcast(ev)
	case sdn.EventConfig:
		return isMulticastConfig(ev)
	case sdn.EventExternalCall:
		// Calls into a drifted service (FAUCET-355's Gauge → InfluxDB
		// type mismatch). Ecosystem faults are live only while the
		// deployed versions actually mismatch expectations.
		if f.Spec.Cause == taxonomy.CauseEcosystem {
			return f.envMismatch()
		}
		return true
	case sdn.EventHardwareReboot:
		// Any device reboot (VOL-549's OLT re-activation hang).
		return true
	default:
		return false
	}
}

// isMirrorBroadcast reports whether ev punts a broadcast frame on the
// mirror VLAN — the poison input of deterministic network faults
// (FAUCET-1623's mirrored-broadcast edge case).
func isMirrorBroadcast(ev sdn.Event) bool {
	pi, ok := ev.Msg.(*openflow.PacketIn)
	if !ok {
		return false
	}
	pkt, err := sdn.DecodePacket(pi.Data)
	return err == nil && pkt.IsBroadcast() && pkt.VlanID == PoisonVLAN
}

// isMulticastConfig reports whether ev pushes a multicast/host-handler
// config stanza — the poison input of deterministic misconfiguration
// faults (CORD-2470's null-pointer-inducing key).
func isMulticastConfig(ev sdn.Event) bool {
	return ev.Kind == sdn.EventConfig && strings.HasPrefix(ev.Key, "multicast.")
}

// activates decides whether the bug fires for this event.
func (f *Fault) activates(ev sdn.Event) bool {
	if f.Disabled {
		return false
	}
	if f.Spec.Deterministic {
		if f.Spec.Cause == taxonomy.CauseMemory || f.Spec.Cause == taxonomy.CauseLoad {
			// Leaks accumulate on every matching-kind event and blow up
			// when the budget is exhausted (ONOS-4859); load bugs fire
			// once event volume crosses the same threshold (ONOS-5992's
			// cluster collapse under pressure).
			if ev.Kind == triggerKind(f.Spec.Trigger) {
				f.leaked++
				return f.leaked >= f.Spec.MemoryBudget
			}
			return false
		}
		return f.signatureMatch(ev)
	}
	// Non-deterministic: one coin flip per incarnation, then the race
	// manifests on the first matching event.
	if ev.Kind != triggerKind(f.Spec.Trigger) {
		return false
	}
	if !f.decided {
		f.decided = true
		if f.incarnation == 0 {
			f.activeThisIncarnation = true
		} else {
			f.activeThisIncarnation = f.rng.Float64() < f.Spec.ActivationP
		}
	}
	return f.activeThisIncarnation
}

// Middleware returns the controller middleware realizing the fault.
func (f *Fault) Middleware() sdn.Middleware {
	return func(next sdn.HandlerFunc) sdn.HandlerFunc {
		return func(c *sdn.Controller, ev sdn.Event) (int, error) {
			if !f.activates(ev) {
				return next(c, ev)
			}
			return f.applyEffect(next, c, ev)
		}
	}
}

// applyEffect realizes the symptom.
func (f *Fault) applyEffect(next sdn.HandlerFunc, c *sdn.Controller, ev sdn.Event) (int, error) {
	switch f.Spec.Symptom {
	case taxonomy.SymptomFailStop:
		return 1, fmt.Errorf("%s: %w", f.Spec.Name, sdn.ErrCrash)
	case taxonomy.SymptomPerformance:
		cost, err := next(c, ev)
		// Degraded, but below the stall threshold: slow, not frozen.
		return cost + 400, err
	case taxonomy.SymptomErrorMessage:
		cost, err := next(c, ev)
		if err == nil {
			err = fmt.Errorf("%s: spurious failure while handling %v", f.Spec.Name, ev.Kind)
		}
		return cost, err
	case taxonomy.SymptomByzantine:
		// The buggy code silently skips the event: the affected
		// functionality (e.g. broadcast mirroring) stops working while
		// everything else continues — a gray failure. Reboot-triggered
		// byzantine faults instead stall the core (VOL-549).
		if f.Spec.Trigger == taxonomy.TriggerHardwareReboot {
			cost, err := next(c, ev)
			return cost + 5000, err // core thread hangs awaiting adapter
		}
		return 1, nil // event swallowed, no error raised
	default:
		return next(c, ev)
	}
}

// ArmEnvironment applies environment-level tampering for ecosystem
// faults: the live service version drifts from what the app expects
// (the outdated-dependency problem of §V-A).
func (f *Fault) ArmEnvironment(env *sdn.Environment) {
	if f.Spec.Cause != taxonomy.CauseEcosystem {
		return
	}
	f.env = env
	f.expectedEnv = make(map[string]int, len(env.Versions))
	for svc, v := range env.Versions {
		f.expectedEnv[svc] = v
	}
	if f.Disabled {
		return
	}
	for svc := range env.Versions {
		env.Versions[svc]++
	}
}

// envMismatch reports whether the armed environment has drifted from
// the application's expectations.
func (f *Fault) envMismatch() bool {
	if f.env == nil {
		return false
	}
	for svc, want := range f.expectedEnv {
		if f.env.Versions[svc] != want {
			return true
		}
	}
	return false
}

// ExpectedEnv returns the service versions the application was built
// against (what a dependency-fixing recovery should restore).
func (f *Fault) ExpectedEnv() map[string]int {
	out := make(map[string]int, len(f.expectedEnv))
	for k, v := range f.expectedEnv {
		out[k] = v
	}
	return out
}

// StandardSuite returns the canonical fault matrix for the Table VII
// evaluation: one representative fault per root-cause class, each
// modeled on a bug the paper cites.
func StandardSuite(seed int64) []*Fault {
	specs := []Spec{
		{
			// FAUCET-1623: interface mirroring missed output broadcast
			// packets — an unhandled edge case, silent partial outage.
			Name:  "FAUCET-1623-missing-logic",
			Cause: taxonomy.CauseMissingLogic, Trigger: taxonomy.TriggerNetworkEvent,
			Symptom: taxonomy.SymptomByzantine, Deterministic: true,
		},
		{
			// CORD-2470: a misconfiguration drove the host/multicast
			// handlers into a null-pointer crash.
			Name:  "CORD-2470-misconfig-crash",
			Cause: taxonomy.CauseHumanMisconfig, Trigger: taxonomy.TriggerConfiguration,
			Symptom: taxonomy.SymptomFailStop, Deterministic: true,
		},
		{
			// FAUCET-355: Gauge crashed on a type mismatch against
			// InfluxDB after the external API drifted.
			Name:  "FAUCET-355-ecosystem-mismatch",
			Cause: taxonomy.CauseEcosystem, Trigger: taxonomy.TriggerExternalCall,
			Symptom: taxonomy.SymptomFailStop, Deterministic: true,
		},
		{
			// VOL-549: after an OLT reboot the core thread waits
			// forever for the adapter — a stall.
			Name:  "VOL-549-reboot-hang",
			Cause: taxonomy.CauseMissingLogic, Trigger: taxonomy.TriggerHardwareReboot,
			Symptom: taxonomy.SymptomByzantine, Deterministic: true,
		},
		{
			// CORD-1734: interleaved threads degraded every API call —
			// a concurrency-driven performance bug, non-deterministic.
			Name:  "CORD-1734-concurrency-slowdown",
			Cause: taxonomy.CauseConcurrency, Trigger: taxonomy.TriggerNetworkEvent,
			Symptom: taxonomy.SymptomPerformance, Deterministic: false, ActivationP: 0.2,
		},
		{
			// ONOS-4859: ineffective memory use accumulating until the
			// instance dies.
			Name:  "ONOS-4859-memory-leak",
			Cause: taxonomy.CauseMemory, Trigger: taxonomy.TriggerNetworkEvent,
			Symptom: taxonomy.SymptomFailStop, Deterministic: true, MemoryBudget: 10,
		},
		{
			// ONOS-5992: load-driven cascade — killing one instance
			// collapsed the cluster; modeled as volume-triggered crash.
			Name:  "ONOS-5992-load-collapse",
			Cause: taxonomy.CauseLoad, Trigger: taxonomy.TriggerNetworkEvent,
			Symptom: taxonomy.SymptomFailStop, Deterministic: true, MemoryBudget: 14,
		},
		{
			// A non-deterministic race that corrupts nothing durable:
			// the classic transient error-message bug.
			Name:  "race-spurious-errors",
			Cause: taxonomy.CauseConcurrency, Trigger: taxonomy.TriggerNetworkEvent,
			Symptom: taxonomy.SymptomErrorMessage, Deterministic: false, ActivationP: 0.2,
		},
	}
	out := make([]*Fault, len(specs))
	for i, s := range specs {
		out[i] = NewFault(s, seed+int64(i)*13)
	}
	return out
}
