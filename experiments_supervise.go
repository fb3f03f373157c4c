package sdnbugs

import (
	"fmt"

	"sdnbugs/internal/engine"
	"sdnbugs/internal/faultlab"
	"sdnbugs/internal/report"
)

// registerSuperviseExperiments registers the self-healing-runtime
// experiment (E22) after the robust-mining experiment.
func (s *Suite) registerSuperviseExperiments(r *engine.Registry[ExperimentResult]) {
	registerSuite(r, "E22", "self-healing controller under a sustained fault-injection campaign",
		engine.KindExperiment, s.e22SelfHealingCampaign)
}

// e22CheckpointEvery is the checkpoint cadence of the supervised run
// under test.
const e22CheckpointEvery = 64

// e22SelfHealingCampaign is the supervisor experiment: the full fault
// suite armed at once over a seed-deterministic schedule of
// management events, traffic, poison inputs, and wire-level faults,
// run three ways — supervised with checkpoints, supervised with cold
// replay only, and the fail-fast watchdog baseline. The supervisor
// (internal/supervise) converts the taxonomy's failure symptoms into
// bounded recovery: availability strictly above the baseline, zero
// lost events, shedding limited to deterministic poison classes, wire
// faults absorbed instead of fatal, and byte-identical metrics across
// same-seed runs.
func (s *Suite) e22SelfHealingCampaign() (ExperimentResult, error) {
	var res ExperimentResult

	supCkpt, err := faultlab.RunCampaign(faultlab.CampaignConfig{
		Seed: s.Seed, Supervised: true, CheckpointEvery: e22CheckpointEvery})
	if err != nil {
		return res, fmt.Errorf("sdnbugs: supervised campaign: %w", err)
	}
	supCkpt2, err := faultlab.RunCampaign(faultlab.CampaignConfig{
		Seed: s.Seed, Supervised: true, CheckpointEvery: e22CheckpointEvery})
	if err != nil {
		return res, fmt.Errorf("sdnbugs: supervised campaign rerun: %w", err)
	}
	supCold, err := faultlab.RunCampaign(faultlab.CampaignConfig{
		Seed: s.Seed, Supervised: true})
	if err != nil {
		return res, fmt.Errorf("sdnbugs: cold-replay campaign: %w", err)
	}
	unsup, err := faultlab.RunCampaign(faultlab.CampaignConfig{Seed: s.Seed})
	if err != nil {
		return res, fmt.Errorf("sdnbugs: baseline campaign: %w", err)
	}

	allowed := make(map[string]bool)
	for _, c := range faultlab.DeterministicPoisonClasses() {
		allowed[c] = true
	}
	shedOK := true
	for _, c := range supCkpt.ShedClasses {
		if !allowed[c] {
			shedOK = false
		}
	}
	identical := supCkpt.Fingerprint() == supCkpt2.Fingerprint()

	res.Checks = append(res.Checks,
		report.Check{Metric: "supervised availability above baseline",
			Paper: "supervision converts outages into bounded recovery",
			Measured: fmt.Sprintf("supervised %.4f vs unsupervised %.4f",
				supCkpt.EventAvailability(), unsup.EventAvailability()),
			Holds: supCkpt.EventAvailability() > unsup.EventAvailability()},
		report.Check{Metric: "zero events lost under supervision",
			Paper: "fail-stop events are retried after restart, never dropped silently",
			Measured: fmt.Sprintf("supervised lost %d vs unsupervised lost %d",
				supCkpt.Lost, unsup.Lost),
			Holds: supCkpt.Lost == 0 && unsup.Lost > 0},
		report.Check{Metric: "checkpoint restore cheaper than cold replay",
			Paper: "restore cost scales with state size, not log length",
			Measured: fmt.Sprintf("checkpoint %.1f ticks/restore vs cold %.1f",
				supCkpt.MeanCheckpointRestoreTicks(), supCold.MeanColdRestoreTicks()),
			Holds: supCkpt.CheckpointRestores > 0 && supCold.ColdRestores > 0 &&
				supCkpt.MeanCheckpointRestoreTicks() < supCold.MeanColdRestoreTicks()},
		report.Check{Metric: "degradation sheds only deterministic poison classes",
			Paper: "graceful degradation is surgical: healthy siblings keep flowing",
			Measured: fmt.Sprintf("shed %v (degradations %d)",
				supCkpt.ShedClasses, supCkpt.Degradations),
			Holds: shedOK && supCkpt.Degradations > 0},
		report.Check{Metric: "wire faults absorbed, never fatal",
			Paper: "malformed frames and dropped connections must not kill the controller",
			Measured: fmt.Sprintf("supervised: %d faults, %d kills, final %s; baseline kills %d",
				supCkpt.WireFaults, supCkpt.WireKills, supCkpt.FinalState, unsup.WireKills),
			Holds: supCkpt.WireFaults > 0 && supCkpt.WireKills == 0 &&
				supCkpt.FinalState == "running" && unsup.WireKills > 0},
		report.Check{Metric: "divergence spot-checks mask byzantine failures",
			Paper: "silent broadcast loss is caught and degraded away",
			Measured: fmt.Sprintf("broadcast failures: supervised %d/%d vs unsupervised %d/%d",
				supCkpt.BroadcastFailures, supCkpt.BroadcastProbes,
				unsup.BroadcastFailures, unsup.BroadcastProbes),
			Holds: supCkpt.BroadcastProbes > 0 &&
				supCkpt.BroadcastFailures*10 < unsup.BroadcastFailures},
		report.Check{Metric: "byte-identical metrics at a fixed seed",
			Paper: "logical time makes sustained campaigns reproducible",
			Measured: fmt.Sprintf("fingerprints identical=%v, %d checkpoints taken",
				identical, supCkpt.Checkpoints),
			Holds: identical && supCkpt.Checkpoints > 0},
	)

	tbl := &report.Table{Title: "Sustained fault-injection campaign (E22)",
		Headers: []string{"metric", "supervised+ckpt", "supervised cold", "unsupervised"}}
	row := func(name string, f func(faultlab.CampaignResult) string) {
		_ = tbl.AddRow(name, f(supCkpt), f(supCold), f(unsup))
	}
	row("events offered", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Offered) })
	row("events processed", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Processed) })
	row("events healed", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Healed) })
	row("events shed", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Shed) })
	row("events lost", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Lost) })
	row("event availability", func(r faultlab.CampaignResult) string {
		return fmt.Sprintf("%.4f", r.EventAvailability())
	})
	row("incidents", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Incidents) })
	row("restarts", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Restarts) })
	row("checkpoint restores (mean ticks)", func(r faultlab.CampaignResult) string {
		return fmt.Sprintf("%d (%.1f)", r.CheckpointRestores, r.MeanCheckpointRestoreTicks())
	})
	row("cold restores (mean ticks)", func(r faultlab.CampaignResult) string {
		return fmt.Sprintf("%d (%.1f)", r.ColdRestores, r.MeanColdRestoreTicks())
	})
	row("classes shed", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", len(r.ShedClasses)) })
	row("wire faults / kills", func(r faultlab.CampaignResult) string {
		return fmt.Sprintf("%d / %d", r.WireFaults, r.WireKills)
	})
	row("broadcast failures", func(r faultlab.CampaignResult) string {
		return fmt.Sprintf("%d / %d", r.BroadcastFailures, r.BroadcastProbes)
	})
	row("final state", func(r faultlab.CampaignResult) string { return r.FinalState })
	res.Tables = append(res.Tables, tbl)
	return res, nil
}
