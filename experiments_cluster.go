package sdnbugs

import (
	"fmt"

	"sdnbugs/internal/engine"
	"sdnbugs/internal/faultlab"
	"sdnbugs/internal/report"
)

// registerClusterExperiments registers the controller HA experiment
// (E26) after the repair loop — the last rung of the resilience
// ladder: supervise one controller, repair its inputs, and finally
// replicate it so even fail-stop crashes cost a failover, not a cold
// replay.
func (s *Suite) registerClusterExperiments(r *engine.Registry[ExperimentResult]) {
	registerSuite(r, "E26", "controller HA: replicated ensemble failover vs cold-replay restart",
		engine.KindExperiment, s.e26ClusterFailover)
}

// e26ClusterFailover reproduces the paper's control-plane findings at
// the ensemble level: controller crashes and mastership confusion are
// among the most damaging SDN failure classes, and the standard
// mitigation is a replicated controller cluster with leader election
// and OpenFlow mastership handoff. The campaign plays one
// seed-deterministic schedule through an N-replica ensemble under
// induced primary crashes, partitions, and asymmetric links, and
// checks: no event is ever lost; every deposed-primary write bounces
// off the fencing token (log and wire); failover is cheaper than the
// supervised baseline's cold full-log replay; availability strictly
// beats the single-controller baseline; and the ensemble's converged
// state is byte-identical to an unfaulted run — crashes and all.
func (s *Suite) e26ClusterFailover() (ExperimentResult, error) {
	var res ExperimentResult

	cfg := faultlab.ClusterCampaignConfig{Seed: s.Seed}
	run, err := faultlab.RunClusterCampaign(cfg)
	if err != nil {
		return res, fmt.Errorf("sdnbugs: cluster campaign: %w", err)
	}
	rerun, err := faultlab.RunClusterCampaign(cfg)
	if err != nil {
		return res, fmt.Errorf("sdnbugs: cluster campaign rerun: %w", err)
	}

	cl, base, truth := run.Cluster, run.Baseline, run.Unfaulted
	res.Checks = append(res.Checks,
		report.Check{Metric: "zero lost events across induced failovers",
			Paper: "replication with log shipping and event re-homing makes controller crashes lossless",
			Measured: fmt.Sprintf("%d failovers (%d elections), %d/%d events lost, log %d vs unfaulted %d",
				cl.Failovers, cl.Elections, cl.Lost, cl.Offered, cl.LogLen, truth.LogLen),
			Holds: cl.Failovers > 0 && cl.Lost == 0 && cl.LogLen == truth.LogLen},
		report.Check{Metric: "zero fenced-write leaks",
			Paper: "generation-id fencing closes the dual-master window: a deposed primary mutates nothing",
			Measured: fmt.Sprintf("%d stale writes rejected (%d at the wire as OFPRRFC_STALE), %d leaked",
				cl.FencedRejects, cl.WireStaleRejects, cl.FencedLeaks),
			Holds: cl.FencedRejects > 0 && cl.WireStaleRejects > 0 && cl.FencedLeaks == 0},
		report.Check{Metric: "failover cheaper than cold replay",
			Paper: "a warm standby resumes from replicated state; a restarted singleton replays its whole log",
			Measured: fmt.Sprintf("mean failover %.1f ticks vs mean cold restore %.1f ticks (%d cold restores)",
				cl.MeanFailoverTicks, base.MeanColdRestoreTicks, base.ColdRestores),
			Holds: base.ColdRestores > 0 && cl.MeanFailoverTicks < base.MeanColdRestoreTicks},
		report.Check{Metric: "availability strictly above the single-controller baseline",
			Paper: "controller redundancy is what turns fail-stop bugs from outages into blips",
			Measured: fmt.Sprintf("cluster %.4f vs supervised singleton %.4f (same crash schedule)",
				cl.TimeAvailability(), base.TimeAvailability()),
			Holds: cl.TimeAvailability() > base.TimeAvailability()},
		report.Check{Metric: "byte-identical state to the unfaulted run, on every replica",
			Paper: "deterministic log replication means failover is invisible in the converged state",
			Measured: fmt.Sprintf("cluster %s vs unfaulted %s across %d replicas; rerun identical=%v",
				cl.Fingerprint, truth.Fingerprint, len(cl.ReplicaFingerprints),
				run.Fingerprint() == rerun.Fingerprint()),
			Holds: run.Identical() && run.Fingerprint() == rerun.Fingerprint()},
	)

	tbl := &report.Table{Title: "Failover campaign by mode (E26, seed-deterministic schedule)",
		Headers: []string{"mode", "offered", "lost", "failovers", "restarts", "mean recovery ticks", "availability", "fingerprint"}}
	for _, m := range []clusterModeRow{
		{run.Cluster, fmt.Sprintf("%.1f", cl.MeanFailoverTicks)},
		{run.Baseline, fmt.Sprintf("%.1f", base.MeanColdRestoreTicks)},
		{run.Unfaulted, "0.0"},
	} {
		r := m.Run
		_ = tbl.AddRow(r.Mode, fmt.Sprintf("%d", r.Offered), fmt.Sprintf("%d", r.Lost),
			fmt.Sprintf("%d", r.Failovers), fmt.Sprintf("%d", r.Restarts),
			m.Recovery, fmt.Sprintf("%.4f", r.TimeAvailability()), r.Fingerprint)
	}
	res.Tables = append(res.Tables, tbl)

	anatomy := &report.Table{Title: "Ensemble failover anatomy (E26)",
		Headers: []string{"metric", "value"}}
	_ = anatomy.AddRow("elections won", fmt.Sprintf("%d", cl.Elections))
	_ = anatomy.AddRow("elections failed (asymmetric links, no quorum)", fmt.Sprintf("%d", cl.FailedElections))
	_ = anatomy.AddRow("lease wait ticks", fmt.Sprintf("%d", cl.LeaseWaitTicks))
	_ = anatomy.AddRow("fenced writes rejected", fmt.Sprintf("%d", cl.FencedRejects))
	_ = anatomy.AddRow("wire role requests rejected stale", fmt.Sprintf("%d", cl.WireStaleRejects))
	_ = anatomy.AddRow("fenced-write leaks", fmt.Sprintf("%d", cl.FencedLeaks))
	res.Tables = append(res.Tables, anatomy)
	return res, nil
}

// clusterModeRow pairs one mode's result with its recovery-cost cell.
type clusterModeRow struct {
	Run      faultlab.ClusterRunResult
	Recovery string
}
