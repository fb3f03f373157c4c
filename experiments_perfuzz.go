package sdnbugs

import (
	"bytes"
	"fmt"

	"sdnbugs/internal/engine"
	"sdnbugs/internal/perfuzz"
	"sdnbugs/internal/report"
)

// registerPerfuzzExperiments registers the feedback-guided
// performance-fuzzing experiment (E24) after the self-healing
// campaign.
func (s *Suite) registerPerfuzzExperiments(r *engine.Registry[ExperimentResult]) {
	registerSuite(r, "E24", "feedback-guided performance fuzzing with minimal-reproducer shrinking",
		engine.KindExperiment, s.e24PerformanceFuzzing)
}

// e24PerformanceFuzzing is the schedule-search experiment: a genetic
// fuzzer over event schedules (internal/perfuzz) hunts the stateful
// performance bugs the taxonomy names — budget-driven queue
// amplification, config-churn slowdown, reboot-storm stalls, and the
// deterministic poison-config crash — using supervisor probe signals
// and the per-event latency tail as fitness. Every degradation class
// it finds is delta-debugged to a minimal reproducer that must still
// trigger the same class; the corpus of (schedule → degraded?) pairs
// trains a decision tree that must beat the majority and random-guess
// baselines on held-out schedules; and the whole run is byte-identical
// across same-seed repeats.
func (s *Suite) e24PerformanceFuzzing() (ExperimentResult, error) {
	var res ExperimentResult

	cfg := perfuzz.Config{Seed: s.Seed}
	rep, err := perfuzz.Fuzz(cfg)
	if err != nil {
		return res, fmt.Errorf("sdnbugs: perfuzz run: %w", err)
	}
	rep2, err := perfuzz.Fuzz(cfg)
	if err != nil {
		return res, fmt.Errorf("sdnbugs: perfuzz rerun: %w", err)
	}
	js1, err := rep.JSON()
	if err != nil {
		return res, fmt.Errorf("sdnbugs: perfuzz report: %w", err)
	}
	js2, err := rep2.JSON()
	if err != nil {
		return res, fmt.Errorf("sdnbugs: perfuzz report rerun: %w", err)
	}

	monotone := true
	for i := 1; i < len(rep.BestFitnessPerGen); i++ {
		if rep.BestFitnessPerGen[i] < rep.BestFitnessPerGen[i-1] {
			monotone = false
		}
	}

	reprosHold := len(rep.Reproducers) > 0
	shrunkStrictly := false
	for _, rp := range rep.Reproducers {
		if rp.Eval.Class != rp.Class || !rp.Eval.Degraded() || rp.Len > rp.ParentLen {
			reprosHold = false
		}
		if rp.Len < rp.ParentLen {
			shrunkStrictly = true
		}
	}

	res.Checks = append(res.Checks,
		report.Check{Metric: "guided search finds degradation-inducing schedules",
			Paper: "stateful performance bugs need the right event sequence, not a poison input",
			Measured: fmt.Sprintf("%d/%d guided schedules degraded; best fitness per gen %s monotone",
				rep.Guided.Degraded, rep.Guided.Distinct, map[bool]string{true: "is", false: "is NOT"}[monotone]),
			Holds: rep.Guided.Degraded >= 1 && monotone},
		report.Check{Metric: "feedback beats random search at equal budget",
			Paper: "fitness-guided mutation concentrates the schedule mix the bugs reward",
			Measured: fmt.Sprintf("guided %d degraded vs random %d (both %d evals)",
				rep.Guided.Degraded, rep.Random.Degraded, rep.Guided.Evals),
			Holds: rep.Guided.Degraded > rep.Random.Degraded},
		report.Check{Metric: "minimal reproducers keep their degradation class",
			Paper: "delta debugging preserves the failure while discarding the noise",
			Measured: fmt.Sprintf("%d reproducers, all class-stable and never longer; strictly shorter: %v",
				len(rep.Reproducers), shrunkStrictly),
			Holds: reprosHold && shrunkStrictly},
		report.Check{Metric: "failure model beats baselines on held-out schedules",
			Paper: "learned failure-inducing models predict degradation before replay",
			Measured: fmt.Sprintf("tree %.3f vs majority %.3f vs random-guess %.3f (test n=%d)",
				rep.Learner.Accuracy, rep.Learner.MajorityAccuracy,
				rep.Learner.RandomGuessAccuracy, rep.Learner.TestSize),
			Holds: rep.Learner.Beats},
		report.Check{Metric: "byte-identical reports at a fixed seed",
			Paper:    "the fuzzer is reproducible from (seed, budget)",
			Measured: fmt.Sprintf("%d-byte reports, identical=%v", len(js1), bytes.Equal(js1, js2)),
			Holds:    bytes.Equal(js1, js2)},
	)

	tbl := &report.Table{Title: "Feedback-guided vs random schedule search (E24)",
		Headers: []string{"metric", "guided", "random"}}
	_ = tbl.AddRow("evaluations", fmt.Sprintf("%d", rep.Guided.Evals), fmt.Sprintf("%d", rep.Random.Evals))
	_ = tbl.AddRow("distinct schedules", fmt.Sprintf("%d", rep.Guided.Distinct), fmt.Sprintf("%d", rep.Random.Distinct))
	_ = tbl.AddRow("degraded schedules", fmt.Sprintf("%d", rep.Guided.Degraded), fmt.Sprintf("%d", rep.Random.Degraded))
	_ = tbl.AddRow("best fitness", fmt.Sprintf("%.2f", rep.Guided.BestFitness), fmt.Sprintf("%.2f", rep.Random.BestFitness))
	res.Tables = append(res.Tables, tbl)

	rtbl := &report.Table{Title: "Minimal reproducers (E24)",
		Headers: []string{"class", "parent len", "shrunk len", "shrink steps", "shrink evals", "fitness"}}
	for _, rp := range rep.Reproducers {
		_ = rtbl.AddRow(rp.Class, fmt.Sprintf("%d", rp.ParentLen), fmt.Sprintf("%d", rp.Len),
			fmt.Sprintf("%d", rp.ShrinkSteps), fmt.Sprintf("%d", rp.ShrinkEvals),
			fmt.Sprintf("%.2f", rp.Eval.Fitness))
	}
	res.Tables = append(res.Tables, rtbl)
	return res, nil
}
