package sdnbugs

import (
	"bytes"
	"fmt"

	"sdnbugs/internal/engine"
	"sdnbugs/internal/repair"
	"sdnbugs/internal/report"
)

// registerRepairExperiments registers the automatic repair loop
// experiment (E25) after the performance fuzzer it builds on.
func (s *Suite) registerRepairExperiments(r *engine.Registry[ExperimentResult]) {
	registerSuite(r, "E25", "automatic repair loop: synthesize, validate, and lift sheds",
		engine.KindExperiment, s.e25AutomaticRepair)
}

// e25AutomaticRepair closes the mine → classify → fix circle: when
// the self-healing supervisor sheds a deterministic poison class, the
// repair loop (internal/repair) synthesizes candidate flow-rule
// programs from a small repair grammar, ranks them with the perfuzz
// failure-model learner, validates survivors against the class's
// ddmin minimal reproducer plus the full fault-injection campaign,
// and lifts the shed only when a candidate passes everything. At
// least one taxonomy category must repair end-to-end, availability
// after repair must exceed shed-mode availability, no
// previously-passing campaign check may regress, and the NetRep-style
// repair report is byte-identical at a fixed seed.
func (s *Suite) e25AutomaticRepair() (ExperimentResult, error) {
	var res ExperimentResult

	cfg := repair.Config{Seed: s.Seed}
	rep, err := repair.Run(cfg)
	if err != nil {
		return res, fmt.Errorf("sdnbugs: repair run: %w", err)
	}
	rep2, err := repair.Run(cfg)
	if err != nil {
		return res, fmt.Errorf("sdnbugs: repair rerun: %w", err)
	}
	js1, err := rep.JSON()
	if err != nil {
		return res, fmt.Errorf("sdnbugs: repair report: %w", err)
	}
	js2, err := rep2.JSON()
	if err != nil {
		return res, fmt.Errorf("sdnbugs: repair report rerun: %w", err)
	}

	repairedCats, attemptedCats := 0, len(rep.Rates)
	for _, rate := range rep.Rates {
		if rate.Repaired > 0 {
			repairedCats++
		}
	}
	// Every lifted shed must correspond to a repaired class and none
	// may re-shed in the post-repair epoch.
	liftsHold := len(rep.Lifted) > 0 && len(rep.ReShed) == 0
	// Unrepaired classes stay shed — graceful degradation is the floor
	// the repair loop can never fall through.
	unrepairedStayShed := true
	for _, cr := range rep.Classes {
		if cr.Repaired {
			continue
		}
		found := false
		for _, c := range rep.Epoch2.ShedClasses {
			if c == cr.Class {
				found = true
			}
		}
		if !found {
			unrepairedStayShed = false
		}
	}

	res.Checks = append(res.Checks,
		report.Check{Metric: "at least one taxonomy category repairs end-to-end",
			Paper: "sketch-based program repair fixes the trigger classes whose poison is an input, not the world",
			Measured: fmt.Sprintf("%d/%d shed categories repaired; lifted %v",
				repairedCats, attemptedCats, rep.Lifted),
			Holds: repairedCats >= 1 && liftsHold},
		report.Check{Metric: "availability after repair exceeds shed-mode availability",
			Paper: "a validated repair re-admits traffic a shed could only drop",
			Measured: fmt.Sprintf("epoch1 (shed mode) %.4f -> epoch2 (repaired) %.4f on the identical schedule",
				rep.Epoch1.Availability, rep.Epoch2.Availability),
			Holds: rep.Epoch2.Availability > rep.Epoch1.Availability},
		report.Check{Metric: "no previously-passing campaign check regresses",
			Paper: "the full-campaign validator rejects repairs that fix one class by breaking another",
			Measured: fmt.Sprintf("composed program (%d rules): regressions %v, shed %v",
				rep.Final.ProgramRules, rep.Final.Regressions, rep.Final.ShedClasses),
			Holds: len(rep.Final.Regressions) == 0},
		report.Check{Metric: "unrepairable classes stay shed",
			Paper: "no grammar production can repair a drifted environment or rebooting hardware from the event path",
			Measured: fmt.Sprintf("epoch-2 shed set %v; re-shed after lift %v",
				rep.Epoch2.ShedClasses, rep.ReShed),
			Holds: unrepairedStayShed},
		report.Check{Metric: "byte-identical repair reports at a fixed seed",
			Paper:    "the repair loop is reproducible from its seed",
			Measured: fmt.Sprintf("%d-byte reports, identical=%v", len(js1), bytes.Equal(js1, js2)),
			Holds:    bytes.Equal(js1, js2)},
	)

	rateTbl := &report.Table{Title: "Repair rate by taxonomy trigger category (E25)",
		Headers: []string{"category", "classes shed", "repaired", "repair rate"}}
	for _, rate := range rep.Rates {
		_ = rateTbl.AddRow(rate.Category, fmt.Sprintf("%d", rate.Shed),
			fmt.Sprintf("%d", rate.Repaired), fmt.Sprintf("%.2f", rate.Rate))
	}
	res.Tables = append(res.Tables, rateTbl)

	classTbl := &report.Table{Title: "Per-class repair outcomes (E25)",
		Headers: []string{"class", "candidates", "validated", "reproducer len", "outcome", "winning patch"}}
	for _, cr := range rep.Classes {
		validated := 0
		for _, a := range cr.Attempts {
			if a.Outcome == "repaired" || a.Outcome == "rejected-campaign" || a.Outcome == "rejected-reproducer" {
				validated++
			}
		}
		outcome := "stays shed"
		patch := "—"
		if cr.Repaired {
			outcome = "repaired + lifted"
			patch = cr.Patch
		}
		_ = classTbl.AddRow(cr.Class, fmt.Sprintf("%d", cr.Candidates),
			fmt.Sprintf("%d", validated), fmt.Sprintf("%d", cr.ReproducerLen), outcome, patch)
	}
	res.Tables = append(res.Tables, classTbl)
	return res, nil
}
