package supervise

import (
	"fmt"

	"sdnbugs/internal/sdn"
	"sdnbugs/internal/taxonomy"
)

// Health is one probe result. Live is process liveness (the
// controller exists and is not crashed); Ready additionally requires
// it to be serving acceptably (not stalled, not in a performance
// regression). The split mirrors Kubernetes-style liveness vs
// readiness: a live-but-unready controller is restarted gently, a
// dead one unconditionally.
type Health struct {
	Live    bool
	Ready   bool
	Symptom taxonomy.Symptom
	Detail  string
}

// Probe runs the taxonomy-derived symptom detectors against the
// controller's current state, ordered by severity: fail-stop (crash),
// stall (byzantine: stalling, §IV), then performance regression
// against the healthy baseline over a sliding cost window. Byzantine
// divergence (silently wrong behaviour) is invisible to state probes
// by definition; callers feed it in via ReportDivergence.
func (s *Supervisor) Probe() Health {
	switch s.C.State {
	case sdn.StateCrashed:
		return Health{Symptom: taxonomy.SymptomFailStop,
			Detail: "controller crashed (fail-stop)"}
	case sdn.StateStalled:
		return Health{Live: true, Symptom: taxonomy.SymptomByzantine,
			Detail: "controller stalled (byzantine: stalling)"}
	}
	if s.cfg.BaselineMeanCost > 0 && len(s.window) >= perfWindow {
		sum := 0
		for _, c := range s.window {
			sum += c
		}
		mean := float64(sum) / float64(len(s.window))
		if mean > perfFactor*s.cfg.BaselineMeanCost {
			return Health{Live: true, Symptom: taxonomy.SymptomPerformance,
				Detail: fmt.Sprintf("windowed mean cost %.1f vs baseline %.1f",
					mean, s.cfg.BaselineMeanCost)}
		}
	}
	return Health{Live: true, Ready: true}
}
