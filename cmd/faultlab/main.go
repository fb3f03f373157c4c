// Command faultlab runs the Table VII recovery-coverage campaign: it
// injects every taxonomy fault class into the simulated controller and
// measures which recovery-framework models fix which classes.
//
//	faultlab -seed 1 -trials 6 [-extended]
//
// With -campaign it instead runs the sustained fault-injection
// campaign (the E22 workload): the full fault suite armed at once over
// a seed-deterministic schedule of management events, traffic, poison
// inputs, and wire-level faults, comparing the self-healing supervisor
// (checkpointed and cold-replay) against a fail-fast watchdog
// baseline.
//
//	faultlab -campaign -seed 1 [-events 1500] [-checkpoint-every 64]
//
// Adding -json to a campaign run emits the three CampaignResults plus
// a live metrics snapshot (restart counts, probe firings, restore
// timings) as one JSON document instead of tables, for scripted
// consumers.
//
//	faultlab -campaign -json -seed 1
//
// With -repair it runs the automatic repair loop (the E25 workload):
// play a supervised campaign epoch until the supervisor sheds its
// deterministic poison classes, synthesize and rank candidate
// flow-rule repairs per shed class, validate them against the ddmin
// minimal reproducer plus the full campaign, lift the sheds a
// validated repair clears, and replay the schedule to measure the
// repaired availability. -json emits the repair report and the
// metrics snapshot as one document.
//
//	faultlab -repair -seed 1 [-events 1500] [-max-candidates 8] [-repair-class configuration/multicast] [-json]
//
// With -cluster it runs the controller-HA campaign (the E26
// workload): the same seed-deterministic schedule played through an
// N-replica ensemble under induced primary crashes, partitions, and
// asymmetric links, compared against a supervised single controller
// and an unfaulted truth run. It exits non-zero if the converged
// ensemble state diverges from the unfaulted fingerprint, so it
// doubles as the cluster smoke check. -json emits the three mode
// results plus the metrics snapshot (election/failover/fencing
// counters, the standby catch-up counters — adopted, compared, copied —
// and the failover wall-tick histogram) as one document.
//
//	faultlab -cluster -seed 1 [-events 1500] [-replicas 3] [-lease-slots 3] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"sdnbugs/internal/faultlab"
	"sdnbugs/internal/metrics"
	"sdnbugs/internal/recovery"
	"sdnbugs/internal/repair"
	"sdnbugs/internal/report"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/taxonomy"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "faultlab:", err)
		os.Exit(1)
	}
}

// run parses args and writes the selected report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("faultlab", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "campaign seed")
	trials := fs.Int("trials", 6, "trials per fault × strategy")
	extended := fs.Bool("extended", false, "include the extended-scope event transform")
	campaign := fs.Bool("campaign", false, "run the sustained fault-injection campaign instead")
	events := fs.Int("events", 1500, "campaign schedule length (with -campaign/-repair)")
	ckptEvery := fs.Int("checkpoint-every", 64, "supervised checkpoint cadence (with -campaign/-repair)")
	jsonOut := fs.Bool("json", false, "emit results and metrics as JSON (with -campaign/-repair)")
	repairLoop := fs.Bool("repair", false, "run the automatic repair loop instead")
	maxCandidates := fs.Int("max-candidates", 8, "full validations per shed class (with -repair)")
	repairClass := fs.String("repair-class", "", "restrict repair attempts to this shed class (with -repair)")
	cluster := fs.Bool("cluster", false, "run the controller-HA failover campaign instead")
	replicas := fs.Int("replicas", 3, "ensemble size (with -cluster)")
	leaseSlots := fs.Int("lease-slots", 3, "slots a partitioned primary holds its lease (with -cluster)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	exclusive := 0
	for _, on := range []bool{*campaign, *repairLoop, *cluster} {
		if on {
			exclusive++
		}
	}
	if exclusive > 1 {
		return fmt.Errorf("-campaign, -repair and -cluster are mutually exclusive")
	}
	if *repairLoop {
		return runRepair(w, *seed, *events, *ckptEvery, *maxCandidates, *repairClass, *jsonOut)
	}
	if *cluster {
		return runCluster(w, *seed, *events, *replicas, *leaseSlots, *jsonOut)
	}
	if *campaign {
		return runCampaign(w, *seed, *events, *ckptEvery, *jsonOut)
	}
	if *jsonOut {
		return fmt.Errorf("-json requires -campaign, -repair or -cluster")
	}

	strategies := recovery.StandardStrategies()
	if *extended {
		strategies = append(strategies, &recovery.EventTransform{Scope: []sdn.EventKind{
			sdn.EventNetwork, sdn.EventConfig, sdn.EventExternalCall, sdn.EventHardwareReboot,
		}})
	}
	m, err := recovery.Evaluate(strategies, recovery.EvalConfig{Trials: *trials, Seed: *seed})
	if err != nil {
		return err
	}

	tbl := &report.Table{Title: "Recovery coverage (Table VII, empirical)",
		Headers: append([]string{"fault"}, m.Strategies()...)}
	for _, f := range m.Faults() {
		row := []string{f}
		for _, s := range m.Strategies() {
			c, _ := m.Cell(f, s)
			mark := "     "
			if c.Recovers() {
				mark = "  ✓  "
			}
			row = append(row, fmt.Sprintf("%s%.2f", mark, c.Rate()))
		}
		if err := tbl.AddRow(row...); err != nil {
			return err
		}
	}
	if err := tbl.Render(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	dc := m.DeterminismCoverage()
	sum := &report.Table{Title: "Coverage by determinism class",
		Headers: []string{"strategy", "deterministic", "non-deterministic"}}
	for _, s := range m.Strategies() {
		c := dc[s]
		if err := sum.AddRow(s, report.Pct(c.Det), report.Pct(c.NonDet)); err != nil {
			return err
		}
	}
	if err := sum.Render(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	cov := m.CoverageByTrigger()
	trig := &report.Table{Title: "Coverage by trigger",
		Headers: []string{"strategy", "configuration", "external-call", "network-event", "hardware-reboot"}}
	for _, s := range m.Strategies() {
		mark := func(t taxonomy.Trigger) string {
			if cov[s][t] {
				return "✓"
			}
			return "-"
		}
		if err := trig.AddRow(s,
			mark(taxonomy.TriggerConfiguration), mark(taxonomy.TriggerExternalCall),
			mark(taxonomy.TriggerNetworkEvent), mark(taxonomy.TriggerHardwareReboot)); err != nil {
			return err
		}
	}
	return trig.Render(w)
}

// runRepair runs the automatic repair loop and renders the NetRep-
// style per-category/per-class outcome — as tables, or with jsonOut
// as one JSON document carrying the full repair report plus the live
// metrics snapshot (candidate counters, validation wall times).
func runRepair(w io.Writer, seed int64, events, ckptEvery, maxCandidates int, repairClass string, jsonOut bool) error {
	reg := metrics.NewRegistry()
	cfg := repair.Config{
		Seed:            seed,
		Events:          events,
		CheckpointEvery: ckptEvery,
		MaxCandidates:   maxCandidates,
		Metrics:         reg,
	}
	if repairClass != "" {
		cfg.Classes = []string{repairClass}
	}
	rep, err := repair.Run(cfg)
	if err != nil {
		return err
	}

	if jsonOut {
		doc := struct {
			Seed    int64            `json:"seed"`
			Events  int              `json:"events"`
			Report  repair.Report    `json:"report"`
			Metrics metrics.Snapshot `json:"metrics"`
		}{Seed: seed, Events: events, Report: rep, Metrics: reg.Snapshot()}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	sum := &report.Table{Title: fmt.Sprintf("Automatic repair loop (seed %d, %d slots/epoch)", seed, events),
		Headers: []string{"metric", "epoch 1 (shed mode)", "epoch 2 (repaired)"}}
	_ = sum.AddRow("events offered", fmt.Sprintf("%d", rep.Epoch1.Offered), fmt.Sprintf("%d", rep.Epoch2.Offered))
	_ = sum.AddRow("events processed", fmt.Sprintf("%d", rep.Epoch1.Processed), fmt.Sprintf("%d", rep.Epoch2.Processed))
	_ = sum.AddRow("events shed", fmt.Sprintf("%d", rep.Epoch1.Shed), fmt.Sprintf("%d", rep.Epoch2.Shed))
	_ = sum.AddRow("event availability", fmt.Sprintf("%.4f", rep.Epoch1.Availability), fmt.Sprintf("%.4f", rep.Epoch2.Availability))
	_ = sum.AddRow("classes shed", fmt.Sprintf("%v", rep.Epoch1.ShedClasses), fmt.Sprintf("%v", rep.Epoch2.ShedClasses))
	if err := sum.Render(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	cls := &report.Table{Title: "Per-class repair outcomes",
		Headers: []string{"class", "candidates", "reproducer len", "repaired", "winning patch"}}
	for _, cr := range rep.Classes {
		patch := "—"
		if cr.Repaired {
			patch = cr.Patch
		}
		if err := cls.AddRow(cr.Class, fmt.Sprintf("%d", cr.Candidates),
			fmt.Sprintf("%d", cr.ReproducerLen), fmt.Sprintf("%v", cr.Repaired), patch); err != nil {
			return err
		}
	}
	if err := cls.Render(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	rates := &report.Table{Title: "Repair rate by taxonomy trigger category",
		Headers: []string{"category", "shed", "repaired", "rate"}}
	for _, rt := range rep.Rates {
		if err := rates.AddRow(rt.Category, fmt.Sprintf("%d", rt.Shed),
			fmt.Sprintf("%d", rt.Repaired), fmt.Sprintf("%.2f", rt.Rate)); err != nil {
			return err
		}
	}
	return rates.Render(w)
}

// runCluster runs the controller-HA campaign and renders the
// three-mode comparison the E26 experiment asserts on — as tables, or
// with jsonOut as one JSON document that also carries the live
// metrics snapshot (election/failover/fencing counters, failover
// wall-tick histogram). It fails — non-zero exit — when the converged
// ensemble state is not byte-identical to the unfaulted run, which
// makes it usable as a smoke check in CI.
func runCluster(w io.Writer, seed int64, events, replicas, leaseSlots int, jsonOut bool) error {
	reg := metrics.NewRegistry()
	res, err := faultlab.RunClusterCampaign(faultlab.ClusterCampaignConfig{
		Seed: seed, Events: events, Replicas: replicas, LeaseSlots: leaseSlots, Metrics: reg,
	})
	if err != nil {
		return err
	}

	var verify error
	if !res.Identical() {
		verify = fmt.Errorf("ensemble state diverged: cluster %s vs unfaulted %s (replicas %v)",
			res.Cluster.Fingerprint, res.Unfaulted.Fingerprint, res.Cluster.ReplicaFingerprints)
	}

	if jsonOut {
		doc := struct {
			Seed      int64                       `json:"seed"`
			Events    int                         `json:"events"`
			Replicas  int                         `json:"replicas"`
			Identical bool                        `json:"identical"`
			Modes     []faultlab.ClusterRunResult `json:"modes"`
			Metrics   metrics.Snapshot            `json:"metrics"`
		}{Seed: seed, Events: events, Replicas: replicas, Identical: res.Identical(),
			Modes:   []faultlab.ClusterRunResult{res.Cluster, res.Baseline, res.Unfaulted},
			Metrics: reg.Snapshot()}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
		return verify
	}

	tbl := &report.Table{Title: fmt.Sprintf("Controller-HA failover campaign (seed %d, %d slots, %d replicas)",
		seed, events, replicas),
		Headers: []string{"metric", res.Cluster.Mode, res.Baseline.Mode, res.Unfaulted.Mode}}
	row := func(name string, f func(faultlab.ClusterRunResult) string) {
		_ = tbl.AddRow(name, f(res.Cluster), f(res.Baseline), f(res.Unfaulted))
	}
	d := func(v func(faultlab.ClusterRunResult) int) func(faultlab.ClusterRunResult) string {
		return func(r faultlab.ClusterRunResult) string { return fmt.Sprintf("%d", v(r)) }
	}
	row("events offered", d(func(r faultlab.ClusterRunResult) int { return r.Offered }))
	row("events processed", d(func(r faultlab.ClusterRunResult) int { return r.Processed }))
	row("events lost", d(func(r faultlab.ClusterRunResult) int { return r.Lost }))
	row("failovers / elections", func(r faultlab.ClusterRunResult) string {
		return fmt.Sprintf("%d / %d", r.Failovers, r.Elections)
	})
	row("failed elections", d(func(r faultlab.ClusterRunResult) int { return r.FailedElections }))
	row("restarts / cold restores", func(r faultlab.ClusterRunResult) string {
		return fmt.Sprintf("%d / %d", r.Restarts, r.ColdRestores)
	})
	row("mean failover ticks", func(r faultlab.ClusterRunResult) string {
		return fmt.Sprintf("%.1f", r.MeanFailoverTicks)
	})
	row("mean cold restore ticks", func(r faultlab.ClusterRunResult) string {
		return fmt.Sprintf("%.1f", r.MeanColdRestoreTicks)
	})
	row("fenced writes rejected (wire stale)", func(r faultlab.ClusterRunResult) string {
		return fmt.Sprintf("%d (%d)", r.FencedRejects, r.WireStaleRejects)
	})
	row("fenced-write leaks", d(func(r faultlab.ClusterRunResult) int { return r.FencedLeaks }))
	row("time availability", func(r faultlab.ClusterRunResult) string {
		return fmt.Sprintf("%.4f", r.TimeAvailability())
	})
	row("log length", d(func(r faultlab.ClusterRunResult) int { return r.LogLen }))
	row("state fingerprint", func(r faultlab.ClusterRunResult) string { return r.Fingerprint })
	if err := tbl.Render(w); err != nil {
		return err
	}
	if verify == nil {
		fmt.Fprintf(w, "\nconverged ensemble state byte-identical to the unfaulted run (%s)\n",
			res.Unfaulted.Fingerprint)
	}
	return verify
}

// runCampaign runs the sustained campaign three ways and renders the
// comparison the E22 experiment asserts on — as tables, or with
// jsonOut as one JSON document that also carries the live metrics
// snapshot (restart counts, probe firings, restore timings).
func runCampaign(w io.Writer, seed int64, events, ckptEvery int, jsonOut bool) error {
	reg := metrics.NewRegistry()
	modes := []faultlab.CampaignConfig{
		{Seed: seed, Events: events, Supervised: true, CheckpointEvery: ckptEvery, Metrics: reg},
		{Seed: seed, Events: events, Supervised: true, Metrics: reg},
		{Seed: seed, Events: events, Metrics: reg},
	}
	var results []faultlab.CampaignResult
	for _, cfg := range modes {
		res, err := faultlab.RunCampaign(cfg)
		if err != nil {
			return err
		}
		results = append(results, res)
	}

	if jsonOut {
		doc := struct {
			Seed      int64                     `json:"seed"`
			Events    int                       `json:"events"`
			Campaigns []faultlab.CampaignResult `json:"campaigns"`
			Metrics   metrics.Snapshot          `json:"metrics"`
		}{Seed: seed, Events: events, Campaigns: results, Metrics: reg.Snapshot()}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	tbl := &report.Table{Title: fmt.Sprintf("Sustained fault-injection campaign (seed %d, %d slots)", seed, events),
		Headers: []string{"metric", results[0].Mode, results[1].Mode, results[2].Mode}}
	row := func(name string, f func(faultlab.CampaignResult) string) error {
		return tbl.AddRow(name, f(results[0]), f(results[1]), f(results[2]))
	}
	rows := []struct {
		name string
		f    func(faultlab.CampaignResult) string
	}{
		{"events offered", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Offered) }},
		{"events processed", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Processed) }},
		{"events healed", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Healed) }},
		{"events shed", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Shed) }},
		{"events lost", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Lost) }},
		{"event availability", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%.4f", r.EventAvailability()) }},
		{"time availability", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%.4f", r.TimeAvailability()) }},
		{"MTTR (ticks)", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%.1f", r.MTTR()) }},
		{"incidents", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Incidents) }},
		{"restarts", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Restarts) }},
		{"degradations", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Degradations) }},
		{"checkpoints", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%d", r.Checkpoints) }},
		{"ckpt restores (mean ticks)", func(r faultlab.CampaignResult) string {
			return fmt.Sprintf("%d (%.1f)", r.CheckpointRestores, r.MeanCheckpointRestoreTicks())
		}},
		{"cold restores (mean ticks)", func(r faultlab.CampaignResult) string {
			return fmt.Sprintf("%d (%.1f)", r.ColdRestores, r.MeanColdRestoreTicks())
		}},
		{"wire faults / kills", func(r faultlab.CampaignResult) string {
			return fmt.Sprintf("%d / %d", r.WireFaults, r.WireKills)
		}},
		{"broadcast failures", func(r faultlab.CampaignResult) string {
			return fmt.Sprintf("%d / %d", r.BroadcastFailures, r.BroadcastProbes)
		}},
		{"classes shed", func(r faultlab.CampaignResult) string { return fmt.Sprintf("%v", r.ShedClasses) }},
		{"final state", func(r faultlab.CampaignResult) string { return r.FinalState }},
	}
	for _, rw := range rows {
		if err := row(rw.name, rw.f); err != nil {
			return err
		}
	}
	return tbl.Render(w)
}
