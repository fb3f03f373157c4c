package sdnbugs

import (
	"fmt"
	"time"

	"sdnbugs/internal/burn"
	"sdnbugs/internal/codemodel"
	"sdnbugs/internal/depscan"
	"sdnbugs/internal/engine"
	"sdnbugs/internal/recovery"
	"sdnbugs/internal/report"
	"sdnbugs/internal/smell"
	"sdnbugs/internal/study"
	"sdnbugs/internal/taxonomy"
	"sdnbugs/internal/tracker"
	"sdnbugs/internal/vcs"
)

// registerSystemsExperiments registers the systems-analysis
// experiments (E11–E20) with the engine in paper order.
func (s *Suite) registerSystemsExperiments(r *engine.Registry[ExperimentResult]) {
	registerSuite(r, "E11", "Figure 14: unique topic percentage per category", engine.KindExperiment, s.E11TopicUniqueness)
	registerSuite(r, "E12", "Figure 13: predicted trigger distribution over the full corpus", engine.KindExperiment, s.E12FullDatasetPrediction)
	registerSuite(r, "E13", "Figure 8: code smells across ONOS releases", engine.KindExperiment, s.E13SmellTrend)
	registerSuite(r, "E14", "Figure 10: commits per ONOS release", engine.KindExperiment, s.E14CommitsPerRelease)
	registerSuite(r, "E15", "Figure 11: FAUCET commit distribution", engine.KindExperiment, s.E15FaucetBurn)
	registerSuite(r, "E16", "Table IV: FAUCET dependency burn-down", engine.KindExperiment, s.E16DependencyBurn)
	registerSuite(r, "E17", "§V-A: ONOS dependency vulnerabilities over versions", engine.KindExperiment, s.E17VulnerabilityScan)
	registerSuite(r, "E18", "§VII-A / Table VI: controller selection guideline", engine.KindExperiment, s.E18ControllerSelection)
	registerSuite(r, "E19", "Table VII: recovery-framework coverage (empirical)", engine.KindExperiment, s.E19RecoveryCoverage)
	registerSuite(r, "E20", "§IX: symptom shares across domains", engine.KindExperiment, s.E20CrossDomainComparison)
}

// E11TopicUniqueness reproduces Figure 14: topic uniqueness per
// category via NMF over the manual set.
func (s *Suite) E11TopicUniqueness() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E11", Title: "Figure 14: unique topic percentage per category"}
	manual, err := s.Manual()
	if err != nil {
		return res, err
	}
	scores, err := manual.TopicUniquenessAnalysis(study.TopicConfig{Rank: 12, Seed: s.Seed})
	if err != nil {
		return res, err
	}
	tbl := &report.Table{Title: "Topic uniqueness (Figure 14)",
		Headers: []string{"dimension", "category", "uniqueness", "support"}}
	rank := map[string]int{}
	for i, sc := range scores {
		rank[sc.Tag] = i
		if i < 12 {
			_ = tbl.AddRow(sc.Dimension.String(), sc.Tag, report.F2(sc.Score),
				fmt.Sprintf("%d", sc.Support))
		}
	}
	res.Tables = append(res.Tables, tbl)

	// The paper's Figure 14 highlights deterministic, byzantine,
	// add-synchronization and third-party categories as uniquely
	// worded. Verify they rank in the top half of all scored tags.
	half := len(scores) / 2
	for _, tag := range []string{"deterministic", "byzantine"} {
		pos, ok := rank[tag]
		res.Checks = append(res.Checks, report.Check{
			Artifact: "E11", Metric: tag + " topic uniqueness rank",
			Paper:    "among the most unique",
			Measured: fmt.Sprintf("rank %d of %d", pos+1, len(scores)),
			Holds:    ok && pos <= half,
		})
	}
	return res, nil
}

// E12FullDatasetPrediction reproduces Figure 13: the trained pipeline
// labels the whole corpus and the predicted trigger distribution keeps
// configuration dominant with network events a small share.
func (s *Suite) E12FullDatasetPrediction() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E12", Title: "Figure 13: predicted trigger distribution over the full corpus"}
	p, err := s.Pipeline()
	if err != nil {
		return res, err
	}
	corp, err := s.Corpus()
	if err != nil {
		return res, err
	}
	labels, err := p.PredictAll(corp.Issues)
	if err != nil {
		return res, err
	}
	// Figure 13's five classes: configuration, system calls,
	// third-party calls, application calls, network events (external
	// calls split by kind); reboot is reported alongside.
	counts := map[string]int{}
	for _, l := range labels {
		switch l.Trigger {
		case taxonomy.TriggerExternalCall:
			counts[l.ExternalKind.String()]++
		default:
			counts[l.Trigger.String()]++
		}
	}
	n := float64(len(labels))
	tbl := &report.Table{Title: "Predicted triggers over full data set (Figure 13)",
		Headers: []string{"class", "share"}}
	order := []string{
		"configuration", "system-call", "third-party-call",
		"application-call", "network-event", "hardware-reboot",
	}
	shares := map[string]float64{}
	for _, cls := range order {
		shares[cls] = float64(counts[cls]) / n
		_ = tbl.AddRow(cls, report.Pct(shares[cls]))
	}
	res.Tables = append(res.Tables, tbl)

	maxOther := 0.0
	for cls, sh := range shares {
		if cls != "configuration" && sh > maxOther {
			maxOther = sh
		}
	}
	res.Checks = append(res.Checks,
		report.Check{Artifact: "E12", Metric: "configuration is the dominant predicted trigger",
			Paper: "configuration major", Measured: report.Pct(shares["configuration"]),
			Holds: shares["configuration"] > maxOther},
		report.Check{Artifact: "E12", Metric: "network events contribute a small part",
			Paper: "only a small part", Measured: report.Pct(shares["network-event"]),
			Holds: shares["network-event"] < shares["configuration"]},
	)
	return res, nil
}

// E13SmellTrend reproduces Figure 8: smell scores across ONOS releases.
func (s *Suite) E13SmellTrend() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E13", Title: "Figure 8: code smells across ONOS releases"}
	pts, err := smell.Trend(codemodel.ONOSReleases(), s.Seed)
	if err != nil {
		return res, err
	}
	tbl := &report.Table{Title: "Smell counts per release (Figure 8)",
		Headers: []string{"version", "god", "unstable-dep", "insufficient-mod", "broken-hier", "hub-like", "missing-hier", "classes"}}
	for _, p := range pts {
		_ = tbl.AddRow(p.Version,
			fmt.Sprintf("%d", p.Counts[smell.GodComponent]),
			fmt.Sprintf("%d", p.Counts[smell.UnstableDependency]),
			fmt.Sprintf("%d", p.Counts[smell.InsufficientModularization]),
			fmt.Sprintf("%d", p.Counts[smell.BrokenHierarchy]),
			fmt.Sprintf("%d", p.Counts[smell.HubLikeModularization]),
			fmt.Sprintf("%d", p.Counts[smell.MissingHierarchy]),
			fmt.Sprintf("%d", p.Classes))
	}
	res.Tables = append(res.Tables, tbl)

	first, mid, last := pts[0], pts[2], pts[len(pts)-1]
	godDrift := last.Counts[smell.GodComponent] - first.Counts[smell.GodComponent]
	res.Checks = append(res.Checks,
		report.Check{Artifact: "E13", Metric: "god component ~constant",
			Paper: "mainly constant", Measured: fmt.Sprintf("drift %+d", godDrift),
			Holds: godDrift >= -2 && godDrift <= 2},
		report.Check{Artifact: "E13", Metric: "unstable dependencies decline 1.12→2.3",
			Paper: "decreased steadily",
			Measured: fmt.Sprintf("%d → %d", first.Counts[smell.UnstableDependency],
				last.Counts[smell.UnstableDependency]),
			Holds: last.Counts[smell.UnstableDependency] < first.Counts[smell.UnstableDependency]},
		report.Check{Artifact: "E13", Metric: "design-smell spike 1.12–1.14",
			Paper: "initial spike",
			Measured: fmt.Sprintf("insufficient-mod %d → %d", first.Counts[smell.InsufficientModularization],
				mid.Counts[smell.InsufficientModularization]),
			Holds: mid.Counts[smell.InsufficientModularization] > first.Counts[smell.InsufficientModularization]},
		report.Check{Artifact: "E13", Metric: "broken hierarchy recedes after 1.14 (ONOS-6594)",
			Paper: "reduction 1.14–2.3",
			Measured: fmt.Sprintf("%d → %d", mid.Counts[smell.BrokenHierarchy],
				last.Counts[smell.BrokenHierarchy]),
			Holds: last.Counts[smell.BrokenHierarchy] < mid.Counts[smell.BrokenHierarchy]},
		report.Check{Artifact: "E13", Metric: "classes grow while modularity does not",
			Paper:    "intent.impl 49 → 107 classes",
			Measured: fmt.Sprintf("total classes %d → %d", first.Classes, last.Classes),
			Holds:    last.Classes > first.Classes},
	)
	return res, nil
}

// E14CommitsPerRelease reproduces Figure 10.
func (s *Suite) E14CommitsPerRelease() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E14", Title: "Figure 10: commits per ONOS release"}
	var schedule []int
	var versions []string
	for _, p := range codemodel.ONOSReleases() {
		schedule = append(schedule, p.Commits)
		versions = append(versions, p.Version)
	}
	h, releases, err := vcs.GenerateONOS(schedule, time.Time{}, s.Seed)
	if err != nil {
		return res, err
	}
	got, err := burn.CommitsPerRelease(h, releases)
	if err != nil {
		return res, err
	}
	tbl := &report.Table{Title: "Commits per release (Figure 10)",
		Headers: []string{"version", "commits"}}
	for i, v := range versions {
		_ = tbl.AddRow(v, fmt.Sprintf("%d", got[i]))
	}
	res.Tables = append(res.Tables, tbl)
	declining := got[len(got)-1] < got[0]
	res.Checks = append(res.Checks, report.Check{
		Artifact: "E14", Metric: "commit counts decline or flatten across releases",
		Paper:    "decreased or became constant",
		Measured: fmt.Sprintf("%d → %d", got[0], got[len(got)-1]),
		Holds:    declining,
	})
	return res, nil
}

// E15FaucetBurn reproduces Figure 11.
func (s *Suite) E15FaucetBurn() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E15", Title: "Figure 11: FAUCET commit distribution"}
	h := vcs.GenerateFaucet(s.Seed)
	dist, err := burn.Distribution(h)
	if err != nil {
		return res, err
	}
	wants := map[burn.Subsystem]float64{
		burn.Configuration:        0.38,
		burn.NetworkFunctionality: 0.35,
		burn.ExternalAbstraction:  0.27,
	}
	tbl := &report.Table{Title: "FAUCET commits by subsystem (Figure 11)",
		Headers: []string{"subsystem", "paper", "measured"}}
	for _, sub := range burn.Subsystems() {
		res.Checks = append(res.Checks, report.Check{
			Artifact: "E15", Metric: sub.String(),
			Paper:    report.Pct(wants[sub]),
			Measured: report.Pct(dist[sub]),
			Holds:    within(dist[sub], wants[sub], 0.03),
		})
		_ = tbl.AddRow(sub.String(), report.Pct(wants[sub]), report.Pct(dist[sub]))
	}
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// E16DependencyBurn reproduces Table IV.
func (s *Suite) E16DependencyBurn() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E16", Title: "Table IV: FAUCET dependency burn-down"}
	h := vcs.GenerateFaucet(s.Seed)
	table, err := burn.BurnDownTable(h)
	if err != nil {
		return res, err
	}
	want := map[string]int{}
	for _, d := range vcs.FaucetDependencies() {
		want[d.Name] = d.Changes
	}
	tbl := &report.Table{Title: "Dependency version changes (Table IV)",
		Headers: []string{"dependency", "paper", "measured"}}
	for _, row := range table {
		res.Checks = append(res.Checks, report.Check{
			Artifact: "E16", Metric: row.Dependency + " version changes",
			Paper:    fmt.Sprintf("%d", want[row.Dependency]),
			Measured: fmt.Sprintf("%d", row.Changes),
			Holds:    row.Changes == want[row.Dependency],
		})
		_ = tbl.AddRow(row.Dependency, fmt.Sprintf("%d", want[row.Dependency]), fmt.Sprintf("%d", row.Changes))
	}
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// E17VulnerabilityScan reproduces the §V-A dependency-vulnerability
// analysis of ONOS.
func (s *Suite) E17VulnerabilityScan() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E17", Title: "§V-A: ONOS dependency vulnerabilities over versions"}
	pts, err := depscan.VulnerabilityTrend(depscan.ONOSManifests(), depscan.BuiltinDB())
	if err != nil {
		return res, err
	}
	tbl := &report.Table{Title: "Vulnerabilities per ONOS release (§V-A)",
		Headers: []string{"version", "dependencies", "findings", "critical"}}
	grows := true
	for i, p := range pts {
		if i > 0 && p.Findings < pts[i-1].Findings {
			grows = false
		}
		_ = tbl.AddRow(p.Version, fmt.Sprintf("%d", p.Deps),
			fmt.Sprintf("%d", p.Findings), fmt.Sprintf("%d", p.Critical))
	}
	res.Tables = append(res.Tables, tbl)
	res.Checks = append(res.Checks,
		report.Check{Artifact: "E17", Metric: "vulnerability count grows with versions",
			Paper: "increased over time as dependencies were added",
			Measured: fmt.Sprintf("%d → %d findings", pts[0].Findings,
				pts[len(pts)-1].Findings),
			Holds: grows && pts[len(pts)-1].Findings > pts[0].Findings},
	)
	// CVE-2018-1000615 appears in releases carrying the stale OVSDB.
	found := false
	for _, m := range depscan.ONOSManifests() {
		fs, err := depscan.Scan(m, depscan.BuiltinDB())
		if err != nil {
			return res, err
		}
		for _, f := range fs {
			if f.CVE.ID == "CVE-2018-1000615" {
				found = true
			}
		}
	}
	res.Checks = append(res.Checks, report.Check{
		Artifact: "E17", Metric: "OVSDB DoS (CVE-2018-1000615) detected",
		Paper:    "outdated OVSDB exposed ONOS to DoS",
		Measured: fmt.Sprintf("detected: %v", found),
		Holds:    found,
	})
	return res, nil
}

// E18ControllerSelection reproduces §VII-A / Table VI: the controller
// selection guideline.
func (s *Suite) E18ControllerSelection() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E18", Title: "§VII-A / Table VI: controller selection guideline"}
	full, err := s.Full()
	if err != nil {
		return res, err
	}
	gs, err := full.Guidelines()
	if err != nil {
		return res, err
	}
	tbl := &report.Table{Title: "Controller stability indicators (§VII-A)",
		Headers: []string{"controller", "missing-logic", "load", "fail-stop", "deterministic"}}
	byCtl := map[tracker.Controller]study.ControllerGuideline{}
	for _, g := range gs {
		byCtl[g.Controller] = g
		_ = tbl.AddRow(g.Controller.String(), report.Pct(g.MissingLogicShare),
			report.Pct(g.LoadShare), report.Pct(g.FailStopShare), report.Pct(g.DeterministicShare))
	}
	res.Tables = append(res.Tables, tbl)
	res.Checks = append(res.Checks,
		report.Check{Artifact: "E18", Metric: "recommended controller",
			Paper: "ONOS most stable", Measured: gs[0].Controller.String(),
			Holds: gs[0].Controller == tracker.ONOS},
		report.Check{Artifact: "E18", Metric: "FAUCET missing-logic share",
			Paper: "52.5%", Measured: report.Pct(byCtl[tracker.FAUCET].MissingLogicShare),
			Holds: within(byCtl[tracker.FAUCET].MissingLogicShare, 0.525, 0.08)},
		report.Check{Artifact: "E18", Metric: "CORD load share vs ONOS",
			Paper: "30% vs 16%",
			Measured: fmt.Sprintf("%s vs %s", report.Pct(byCtl[tracker.CORD].LoadShare),
				report.Pct(byCtl[tracker.ONOS].LoadShare)),
			Holds: within(byCtl[tracker.CORD].LoadShare, 0.30, 0.07) &&
				within(byCtl[tracker.ONOS].LoadShare, 0.16, 0.07)},
	)
	return res, nil
}

// E19RecoveryCoverage reproduces Table VII empirically: inject every
// taxonomy fault class and measure each framework model's recovery.
func (s *Suite) E19RecoveryCoverage() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E19", Title: "Table VII: recovery-framework coverage (empirical)"}
	m, err := recovery.Evaluate(recovery.StandardStrategies(), recovery.EvalConfig{Trials: 6, Seed: s.Seed})
	if err != nil {
		return res, err
	}
	tbl := &report.Table{Title: "Recovery rate per fault × strategy (Table VII)",
		Headers: append([]string{"fault"}, m.Strategies()...)}
	for _, f := range m.Faults() {
		row := []string{f}
		for _, st := range m.Strategies() {
			c, _ := m.Cell(f, st)
			mark := " "
			if c.Recovers() {
				mark = "✓"
			}
			row = append(row, fmt.Sprintf("%s %.2f", mark, c.Rate()))
		}
		_ = tbl.AddRow(row...)
	}
	res.Tables = append(res.Tables, tbl)

	dc := m.DeterminismCoverage()
	var ndCovered, strategies int
	worstDet := 0.0
	for _, c := range dc {
		strategies++
		if c.NonDet >= 0.5 {
			ndCovered++
		}
		if c.Det > worstDet {
			worstDet = c.Det
		}
	}
	res.Checks = append(res.Checks,
		report.Check{Artifact: "E19", Metric: "most strategies recover non-deterministic bugs",
			Paper: "most systems easily recover non-deterministic issues",
			Measured: fmt.Sprintf("%d/%d strategies cover ≥ half the non-det classes",
				ndCovered, strategies),
			Holds: ndCovered*2 >= strategies},
		report.Check{Artifact: "E19", Metric: "deterministic bugs remain largely unsolved",
			Paper: "very little for deterministic issues",
			Measured: fmt.Sprintf("best strategy covers %s of deterministic classes",
				report.Pct(worstDet)),
			Holds: worstDet <= 0.5},
	)
	cov := m.CoverageByTrigger()
	et := cov["event-transform"]
	res.Checks = append(res.Checks, report.Check{
		Artifact: "E19", Metric: "network-event tools do not cover config/external triggers",
		Paper:    "existing approaches focus on network events",
		Measured: fmt.Sprintf("event-transform: net=%v conf=%v ext=%v", et[taxonomy.TriggerNetworkEvent], et[taxonomy.TriggerConfiguration], et[taxonomy.TriggerExternalCall]),
		Holds:    et[taxonomy.TriggerNetworkEvent] && !et[taxonomy.TriggerConfiguration] && !et[taxonomy.TriggerExternalCall],
	})
	return res, nil
}

// E20CrossDomainComparison reproduces the §IX related-work table:
// symptom shares in SDN vs cloud vs BGP studies.
func (s *Suite) E20CrossDomainComparison() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E20", Title: "§IX: symptom shares across domains"}
	full, err := s.Full()
	if err != nil {
		return res, err
	}
	rows := full.CompareDomains()
	tbl := &report.Table{Title: "Symptoms: SDN vs Cloud vs BGP (§IX)",
		Headers: []string{"symptom", "SDN (measured)", "cloud", "bgp"}}
	na := func(v float64) string {
		if v < 0 {
			return "NA"
		}
		return report.Pct(v)
	}
	for _, r := range rows {
		_ = tbl.AddRow(r.Symptom.String(), report.Pct(r.SDNMeasured), na(r.CloudRef), na(r.BGPRef))
		switch r.Symptom {
		case taxonomy.SymptomFailStop:
			res.Checks = append(res.Checks, report.Check{
				Artifact: "E20", Metric: "SDN fail-stop share below cloud and BGP",
				Paper:    "20% vs 59% / 39%",
				Measured: report.Pct(r.SDNMeasured),
				Holds:    r.SDNMeasured < r.CloudRef && r.SDNMeasured < r.BGPRef,
			})
		case taxonomy.SymptomByzantine:
			res.Checks = append(res.Checks, report.Check{
				Artifact: "E20", Metric: "SDN byzantine share above cloud and BGP",
				Paper:    "61.33% vs 25% / 38%",
				Measured: report.Pct(r.SDNMeasured),
				Holds:    r.SDNMeasured > r.CloudRef && r.SDNMeasured > r.BGPRef,
			})
		}
	}
	res.Tables = append(res.Tables, tbl)
	return res, nil
}
