package sdnbugs

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"sdnbugs/internal/corpus"
	"sdnbugs/internal/engine"
	"sdnbugs/internal/report"
	"sdnbugs/internal/study"
	"sdnbugs/internal/taxonomy"
	"sdnbugs/internal/tracker"
	"sdnbugs/internal/trackerd"
)

// registerCorpusExperiments registers the corpus-analysis experiments
// (E01–E10) with the engine in paper order.
func (s *Suite) registerCorpusExperiments(r *engine.Registry[ExperimentResult]) {
	registerSuite(r, "E01", "§II-B data set: tracker mining and corpus shape", engine.KindExperiment, s.E01CorpusMining)
	registerSuite(r, "E02", "§III bug type: determinism per controller", engine.KindExperiment, s.E02Determinism)
	registerSuite(r, "E03", "§IV operational impact: symptom distribution", engine.KindExperiment, s.E03Symptoms)
	registerSuite(r, "E04", "Figure 2: root causes by symptom and controller", engine.KindExperiment, s.E04RootCauseBySymptom)
	registerSuite(r, "E05", "§V-A bug triggers", engine.KindExperiment, s.E05Triggers)
	registerSuite(r, "E06", "Table III: configuration sub-categories", engine.KindExperiment, s.E06ConfigSubcategories)
	registerSuite(r, "E07", "§V-A fixes: config and compatibility shares", engine.KindExperiment, s.E07FixAnalysis)
	registerSuite(r, "E08", "Figure 7: resolution-time CDFs per trigger", engine.KindExperiment, s.E08ResolutionCDF)
	registerSuite(r, "E09", "§II-C NLP validation: SVM vs DT vs AdaBoost vs PCA", engine.KindExperiment, s.E09NLPValidation)
	registerSuite(r, "E10", "Figure 12: bug-category correlation CDF", engine.KindExperiment, s.E10CorrelationCDF)
}

// E01CorpusMining reproduces §II-B's data collection: the corpus is
// loaded into the JIRA and GitHub simulators and mined back over HTTP,
// checking the published per-controller critical-bug counts (251 /
// 186 / 358) and the burst of bug creation around releases.
func (s *Suite) E01CorpusMining() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E01", Title: "§II-B data set: tracker mining and corpus shape"}
	corp, err := s.Corpus()
	if err != nil {
		return res, err
	}

	// Load the simulators exactly as the real trackers would hold the
	// data: ONOS/CORD in JIRA, FAUCET in GitHub.
	jiraStore, ghStore, err := tracker.SplitStores(corp.Issues)
	if err != nil {
		return res, fmt.Errorf("sdnbugs: load stores: %w", err)
	}
	jiraSrv := httptest.NewServer(trackerd.NewJIRAHandler(jiraStore))
	defer jiraSrv.Close()
	ghSrv := httptest.NewServer(trackerd.NewGitHubHandler(ghStore, "faucetsdn", "faucet"))
	defer ghSrv.Close()

	ctx := context.Background()
	jc := trackerd.Client{BaseURL: jiraSrv.URL, PageSize: 100}
	mined := map[tracker.Controller]int{}
	for _, project := range []string{"ONOS", "CORD"} {
		got, err := jc.FetchAll(ctx, trackerd.JIRASearch{Project: project})
		if err != nil {
			return res, fmt.Errorf("sdnbugs: mine %s: %w", project, err)
		}
		ctl, _ := tracker.ParseController(project)
		mined[ctl] = len(got)
	}
	gc := trackerd.Client{BaseURL: ghSrv.URL, PageSize: 100}
	ghIssues, err := gc.FetchAll(ctx, faucetRepo)
	if err != nil {
		return res, fmt.Errorf("sdnbugs: mine FAUCET: %w", err)
	}
	mined[tracker.FAUCET] = len(ghIssues)

	wants := map[tracker.Controller]int{
		tracker.FAUCET: 251, tracker.ONOS: 186, tracker.CORD: 358,
	}
	tbl := &report.Table{Title: "Critical bugs mined per controller (§II-B)",
		Headers: []string{"controller", "tracker", "paper", "mined"}}
	for _, ctl := range controllerOrder {
		res.Checks = append(res.Checks, report.Check{
			Artifact: "E01", Metric: ctl.String() + " critical bugs",
			Paper:    fmt.Sprintf("%d", wants[ctl]),
			Measured: fmt.Sprintf("%d", mined[ctl]),
			Holds:    mined[ctl] == wants[ctl],
		})
		_ = tbl.AddRow(ctl.String(), tracker.TrackerFor(ctl).String(),
			fmt.Sprintf("%d", wants[ctl]), fmt.Sprintf("%d", mined[ctl]))
	}

	// Methodology validation for the GitHub path (§II-B's keyword
	// severity extraction): run the heuristic over the JIRA-labeled
	// bugs, whose severity is explicit, and measure how often it lands
	// in the critical band it is meant to surface.
	var flagged, jiraTotal int
	for _, iss := range corp.Issues {
		if tracker.TrackerFor(iss.Controller) != tracker.KindJIRA {
			continue
		}
		jiraTotal++
		if tracker.ExtractSeverity(iss.Text()).Critical() {
			flagged++
		}
	}
	recall := float64(flagged) / float64(jiraTotal)
	res.Checks = append(res.Checks, report.Check{
		Artifact: "E01", Metric: "keyword severity heuristic flags critical bugs",
		Paper:    "keyword approach [35] used for GitHub severities",
		Measured: report.Pct(recall) + " of JIRA-critical bugs flagged critical-band",
		Holds:    recall > 0.25,
	})

	// Burst near releases.
	full, err := s.Full()
	if err != nil {
		return res, err
	}
	var releases []time.Time
	for _, spec := range corpus.DefaultSpecs() {
		releases = append(releases, spec.Releases...)
	}
	burst := full.ReleaseBurst(releases, 45*24*time.Hour)
	res.Checks = append(res.Checks, report.Check{
		Artifact: "E01", Metric: "bugs created within 45d after a release",
		Paper:    "bursts observed",
		Measured: report.Pct(burst),
		Holds:    burst > 0.5,
	})
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// E02Determinism reproduces §III: determinism share per controller.
func (s *Suite) E02Determinism() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E02", Title: "§III bug type: determinism per controller"}
	full, err := s.Full()
	if err != nil {
		return res, err
	}
	det := full.DeterminismByController()
	wants := map[tracker.Controller]float64{
		tracker.FAUCET: 0.96, tracker.ONOS: 0.94, tracker.CORD: 0.94,
	}
	tbl := &report.Table{Title: "Deterministic bug share (§III)",
		Headers: []string{"controller", "paper", "measured"}}
	for _, ctl := range controllerOrder {
		res.Checks = append(res.Checks, report.Check{
			Artifact: "E02", Metric: ctl.String() + " deterministic",
			Paper:    report.Pct(wants[ctl]),
			Measured: report.Pct(det[ctl]),
			Holds:    within(det[ctl], wants[ctl], 0.05),
		})
		_ = tbl.AddRow(ctl.String(), report.Pct(wants[ctl]), report.Pct(det[ctl]))
	}
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// E03Symptoms reproduces §IV: symptom distribution and the byzantine
// breakdown.
func (s *Suite) E03Symptoms() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E03", Title: "§IV operational impact: symptom distribution"}
	full, err := s.Full()
	if err != nil {
		return res, err
	}
	wants := map[taxonomy.Symptom]float64{
		taxonomy.SymptomByzantine:    0.6133,
		taxonomy.SymptomFailStop:     0.20,
		taxonomy.SymptomErrorMessage: 0.147,
		taxonomy.SymptomPerformance:  0.04,
	}
	tbl := &report.Table{Title: "Symptoms (§IV)", Headers: []string{"symptom", "paper", "measured"}}
	for _, sh := range full.Distribution(taxonomy.DimSymptom) {
		sym, err := taxonomy.ParseSymptom(sh.Category)
		if err != nil {
			continue
		}
		res.Checks = append(res.Checks, report.Check{
			Artifact: "E03", Metric: sh.Category,
			Paper:    report.Pct(wants[sym]),
			Measured: report.Pct(sh.Fraction),
			Holds:    within(sh.Fraction, wants[sym], 0.05),
		})
		_ = tbl.AddRow(sh.Category, report.Pct(wants[sym]), report.Pct(sh.Fraction))
	}
	res.Tables = append(res.Tables, tbl)

	bz := full.ByzantineBreakdown()
	bzWants := map[taxonomy.ByzantineMode]float64{
		taxonomy.GrayFailure:       0.5217,
		taxonomy.Stalling:          0.2065,
		taxonomy.IncorrectBehavior: 0.2718,
	}
	bzTbl := &report.Table{Title: "Byzantine failure modes (§IV)",
		Headers: []string{"mode", "paper", "measured"}}
	for _, m := range taxonomy.ByzantineModes() {
		res.Checks = append(res.Checks, report.Check{
			Artifact: "E03", Metric: "byzantine/" + m.String(),
			Paper:    report.Pct(bzWants[m]),
			Measured: report.Pct(bz[m]),
			Holds:    within(bz[m], bzWants[m], 0.04),
		})
		_ = bzTbl.AddRow(m.String(), report.Pct(bzWants[m]), report.Pct(bz[m]))
	}
	res.Tables = append(res.Tables, bzTbl)
	return res, nil
}

// E04RootCauseBySymptom reproduces Figure 2: root causes of fail-stop
// and performance bugs per controller.
func (s *Suite) E04RootCauseBySymptom() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E04", Title: "Figure 2: root causes by symptom and controller"}
	full, err := s.Full()
	if err != nil {
		return res, err
	}
	tbl := &report.Table{Title: "Root causes of fail-stop and performance bugs (Figure 2)",
		Headers: []string{"controller", "symptom", "cause", "share"}}
	for _, ctl := range controllerOrder {
		for _, sym := range []taxonomy.Symptom{taxonomy.SymptomFailStop, taxonomy.SymptomPerformance} {
			dist, err := full.CauseBySymptom(ctl, sym)
			if err != nil {
				return res, err
			}
			for _, sh := range dist {
				if sh.Count == 0 {
					continue
				}
				_ = tbl.AddRow(ctl.String(), sym.String(), sh.Category, report.Pct(sh.Fraction))
			}
		}
	}
	res.Tables = append(res.Tables, tbl)

	// Checks: FAUCET fail-stop from human+ecosystem; ONOS/CORD
	// fail-stop from controller logic; CORD more missing-logic than
	// ONOS among fail-stop bugs.
	share := func(ctl tracker.Controller, sym taxonomy.Symptom, pred func(taxonomy.RootCause) bool) (float64, error) {
		dist, err := full.CauseBySymptom(ctl, sym)
		if err != nil {
			return 0, err
		}
		var total float64
		for _, sh := range dist {
			cause, err := taxonomy.ParseRootCause(sh.Category)
			if err != nil {
				continue
			}
			if pred(cause) {
				total += sh.Fraction
			}
		}
		return total, nil
	}
	isHumanEco := func(c taxonomy.RootCause) bool { return !c.IsControllerLogic() }
	isLogic := func(c taxonomy.RootCause) bool { return c.IsControllerLogic() }
	isMissing := func(c taxonomy.RootCause) bool { return c == taxonomy.CauseMissingLogic }

	fhe, err := share(tracker.FAUCET, taxonomy.SymptomFailStop, isHumanEco)
	if err != nil {
		return res, err
	}
	res.Checks = append(res.Checks, report.Check{
		Artifact: "E04", Metric: "FAUCET fail-stop from human+ecosystem",
		Paper: "majority", Measured: report.Pct(fhe), Holds: fhe > 0.5,
	})
	for _, ctl := range []tracker.Controller{tracker.ONOS, tracker.CORD} {
		logic, err := share(ctl, taxonomy.SymptomFailStop, isLogic)
		if err != nil {
			return res, err
		}
		res.Checks = append(res.Checks, report.Check{
			Artifact: "E04", Metric: ctl.String() + " fail-stop from controller logic",
			Paper: "majority", Measured: report.Pct(logic), Holds: logic > 0.5,
		})
	}
	cordMissing, err := share(tracker.CORD, taxonomy.SymptomFailStop, isMissing)
	if err != nil {
		return res, err
	}
	onosMissing, err := share(tracker.ONOS, taxonomy.SymptomFailStop, isMissing)
	if err != nil {
		return res, err
	}
	res.Checks = append(res.Checks, report.Check{
		Artifact: "E04", Metric: "CORD fail-stop missing-logic vs ONOS",
		Paper:    "CORD > ONOS",
		Measured: fmt.Sprintf("%s vs %s", report.Pct(cordMissing), report.Pct(onosMissing)),
		Holds:    cordMissing > onosMissing,
	})
	return res, nil
}

// E05Triggers reproduces §V-A: the trigger distribution.
func (s *Suite) E05Triggers() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E05", Title: "§V-A bug triggers"}
	full, err := s.Full()
	if err != nil {
		return res, err
	}
	wants := map[taxonomy.Trigger]float64{
		taxonomy.TriggerConfiguration:  0.388,
		taxonomy.TriggerExternalCall:   0.33,
		taxonomy.TriggerNetworkEvent:   0.198,
		taxonomy.TriggerHardwareReboot: 0.084,
	}
	tbl := &report.Table{Title: "Triggers (§V-A)", Headers: []string{"trigger", "paper", "measured"}}
	for _, sh := range full.Distribution(taxonomy.DimTrigger) {
		trig, err := taxonomy.ParseTrigger(sh.Category)
		if err != nil {
			continue
		}
		res.Checks = append(res.Checks, report.Check{
			Artifact: "E05", Metric: sh.Category,
			Paper:    report.Pct(wants[trig]),
			Measured: report.Pct(sh.Fraction),
			Holds:    within(sh.Fraction, wants[trig], 0.05),
		})
		_ = tbl.AddRow(sh.Category, report.Pct(wants[trig]), report.Pct(sh.Fraction))
	}
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// E06ConfigSubcategories reproduces Table III.
func (s *Suite) E06ConfigSubcategories() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E06", Title: "Table III: configuration sub-categories"}
	full, err := s.Full()
	if err != nil {
		return res, err
	}
	wants := map[tracker.Controller]map[taxonomy.ConfigScope]float64{
		tracker.FAUCET: {taxonomy.ConfigController: 0.529, taxonomy.ConfigDataPlane: 0.117, taxonomy.ConfigThirdParty: 0.354},
		tracker.ONOS:   {taxonomy.ConfigController: 0.60, taxonomy.ConfigDataPlane: 0.15, taxonomy.ConfigThirdParty: 0.25},
		tracker.CORD:   {taxonomy.ConfigController: 0.642, taxonomy.ConfigDataPlane: 0.142, taxonomy.ConfigThirdParty: 0.216},
	}
	tbl := &report.Table{Title: "Config sub-categories (Table III)",
		Headers: []string{"controller", "scope", "paper", "measured"}}
	for _, ctl := range controllerOrder {
		got, err := full.ConfigSubcategories(ctl)
		if err != nil {
			return res, err
		}
		for _, scope := range taxonomy.ConfigScopes() {
			want := wants[ctl][scope]
			res.Checks = append(res.Checks, report.Check{
				Artifact: "E06", Metric: ctl.String() + " " + scope.String(),
				Paper:    report.Pct(want),
				Measured: report.Pct(got[scope]),
				Holds:    within(got[scope], want, 0.09),
			})
			_ = tbl.AddRow(ctl.String(), scope.String(), report.Pct(want), report.Pct(got[scope]))
		}
	}
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// E07FixAnalysis reproduces §V-A's fix findings.
func (s *Suite) E07FixAnalysis() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E07", Title: "§V-A fixes: config and compatibility shares"}
	full, err := s.Full()
	if err != nil {
		return res, err
	}
	fa, err := full.AnalyzeFixes()
	if err != nil {
		return res, err
	}
	res.Checks = append(res.Checks,
		report.Check{
			Artifact: "E07", Metric: "config bugs fixed by config change",
			Paper: "25.0%", Measured: report.Pct(fa.ConfigBugsFixedByConfig),
			Holds: within(fa.ConfigBugsFixedByConfig, 0.25, 0.06),
		},
		report.Check{
			Artifact: "E07", Metric: "external-call compatibility/upgrade fixes",
			Paper: "41.4%", Measured: report.Pct(fa.ExternalCompatibilityFixes),
			Holds: within(fa.ExternalCompatibilityFixes, 0.414, 0.07),
		},
		report.Check{
			Artifact: "E07", Metric: "network-event bugs fixed by adding logic",
			Paper: "majority", Measured: report.Pct(fa.NetworkEventAddLogic),
			Holds: fa.NetworkEventAddLogic > 0.5,
		},
	)
	tbl := &report.Table{Title: "Fix analysis (§V-A)", Headers: []string{"metric", "paper", "measured"}}
	_ = tbl.AddRow("config fixed by config", "25.0%", report.Pct(fa.ConfigBugsFixedByConfig))
	_ = tbl.AddRow("external compat fixes", "41.4%", report.Pct(fa.ExternalCompatibilityFixes))
	_ = tbl.AddRow("network-event add-logic", "majority", report.Pct(fa.NetworkEventAddLogic))
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// E08ResolutionCDF reproduces Figure 7: resolution-time CDFs per
// trigger for ONOS and CORD (FAUCET's GitHub data has no timestamps).
func (s *Suite) E08ResolutionCDF() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E08", Title: "Figure 7: resolution-time CDFs per trigger"}
	full, err := s.Full()
	if err != nil {
		return res, err
	}
	var series []report.Series
	p90 := map[string]float64{}
	for _, ctl := range []tracker.Controller{tracker.ONOS, tracker.CORD} {
		for _, trig := range taxonomy.Triggers() {
			cdf, err := full.ResolutionCDF(ctl, trig)
			if err != nil {
				return res, fmt.Errorf("sdnbugs: %s/%s: %w", ctl, trig, err)
			}
			name := fmt.Sprintf("%s/%s", ctl, trig)
			series = append(series, report.CDFSeries(name, cdf, 12))
			p90[name] = cdf.Quantile(0.9)
		}
	}
	res.Tables = append(res.Tables, report.SeriesTable("Resolution time CDFs, days (Figure 7)", series))
	pctTbl := &report.Table{Title: "Resolution-time percentiles, days (Figure 7)",
		Headers: []string{"controller/trigger", "P50", "P90", "max"}}
	for _, ctl := range []tracker.Controller{tracker.ONOS, tracker.CORD} {
		for _, trig := range taxonomy.Triggers() {
			cdf, err := full.ResolutionCDF(ctl, trig)
			if err != nil {
				return res, err
			}
			_ = pctTbl.AddRow(fmt.Sprintf("%s/%s", ctl, trig),
				report.F2(cdf.Quantile(0.5)), report.F2(cdf.Quantile(0.9)), report.F2(cdf.Max()))
		}
	}
	res.Tables = append(res.Tables, pctTbl)

	checks := []struct {
		metric, a, b string
	}{
		{"ONOS config tail > CORD config tail", "ONOS/configuration", "CORD/configuration"},
		{"ONOS external tail > CORD external tail", "ONOS/external-call", "CORD/external-call"},
		{"ONOS network tail > CORD network tail", "ONOS/network-event", "CORD/network-event"},
		{"CORD reboot tail > ONOS reboot tail", "CORD/hardware-reboot", "ONOS/hardware-reboot"},
	}
	for _, c := range checks {
		res.Checks = append(res.Checks, report.Check{
			Artifact: "E08", Metric: c.metric,
			Paper:    "ordering holds",
			Measured: fmt.Sprintf("P90 %.0fd vs %.0fd", p90[c.a], p90[c.b]),
			Holds:    p90[c.a] > p90[c.b],
		})
	}
	// Configuration has the longest tail overall (per controller).
	for _, ctl := range []string{"ONOS", "CORD"} {
		conf := p90[ctl+"/configuration"]
		worst := true
		for _, other := range []string{"/external-call", "/network-event"} {
			if p90[ctl+other] > conf {
				worst = false
			}
		}
		res.Checks = append(res.Checks, report.Check{
			Artifact: "E08", Metric: ctl + " configuration is the slowest-resolving trigger",
			Paper:    "longest tail",
			Measured: fmt.Sprintf("P90 %.0fd", conf),
			Holds:    worst,
		})
	}
	return res, nil
}

// E09NLPValidation reproduces §II-C's model validation.
func (s *Suite) E09NLPValidation() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E09", Title: "§II-C NLP validation: SVM vs DT vs AdaBoost vs PCA"}
	val, err := s.Validator()
	if err != nil {
		return res, err
	}
	results, err := val.ValidateRepeated(study.PipelineConfig{Seed: s.Seed, Workers: s.Workers}, 3)
	if err != nil {
		return res, err
	}
	tbl := &report.Table{Title: "Classifier accuracy by dimension (§II-C)",
		Headers: []string{"dimension", "svm", "svm-no-norm", "dtree", "adaboost", "pca+svm", "best"}}
	byDim := map[taxonomy.Dimension]study.ValidationResult{}
	for _, r := range results {
		byDim[r.Dimension] = r
		_ = tbl.AddRow(r.Dimension.String(),
			report.Pct(r.Accuracies[study.ModelSVM]),
			report.Pct(r.Accuracies[study.ModelSVMNoNorm]),
			report.Pct(r.Accuracies[study.ModelDTree]),
			report.Pct(r.Accuracies[study.ModelAdaBoost]),
			report.Pct(r.Accuracies[study.ModelPCASVM]),
			string(r.Best))
	}
	res.Tables = append(res.Tables, tbl)

	typeAcc := byDim[taxonomy.DimType].Accuracies[study.ModelSVM]
	symAcc := byDim[taxonomy.DimSymptom].Accuracies[study.ModelSVM]
	fixAcc := byDim[taxonomy.DimFix].Accuracies[study.ModelSVM]
	res.Checks = append(res.Checks,
		report.Check{Artifact: "E09", Metric: "SVM bug-type accuracy",
			Paper: "≈96%", Measured: report.Pct(typeAcc), Holds: typeAcc >= 0.90},
		report.Check{Artifact: "E09", Metric: "SVM symptom accuracy",
			Paper: "≈86%", Measured: report.Pct(symAcc), Holds: symAcc >= 0.72 && symAcc <= 0.97},
		report.Check{Artifact: "E09", Metric: "fix prediction is poor",
			Paper: "no accurate model found", Measured: report.Pct(fixAcc), Holds: fixAcc < symAcc-0.2},
		report.Check{Artifact: "E09", Metric: "normalization helps the SVM",
			Paper: "SVM with normalization best",
			Measured: fmt.Sprintf("sym %s vs %s unnormalized", report.Pct(symAcc),
				report.Pct(byDim[taxonomy.DimSymptom].Accuracies[study.ModelSVMNoNorm])),
			Holds: symAcc >= byDim[taxonomy.DimSymptom].Accuracies[study.ModelSVMNoNorm]},
	)
	return res, nil
}

// E10CorrelationCDF reproduces Figure 12: the bug-category correlation
// CDF and its strong tail.
func (s *Suite) E10CorrelationCDF() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E10", Title: "Figure 12: bug-category correlation CDF"}
	full, err := s.Full()
	if err != nil {
		return res, err
	}
	cdf, err := full.CorrelationCDF()
	if err != nil {
		return res, err
	}
	res.Tables = append(res.Tables,
		report.SeriesTable("CDF of |phi| across category pairs (Figure 12)",
			[]report.Series{report.CDFSeries("all-pairs", cdf, 20)}))

	strong := full.StrongFraction(0.4)
	res.Checks = append(res.Checks, report.Check{
		Artifact: "E10", Metric: "strongly correlated pair share",
		Paper:    "6.28% strong tail",
		Measured: report.Pct(strong),
		Holds:    strong > 0 && strong < 0.2,
	})

	// The §VII-B shortcut pairs exist in the strong set.
	pairs := full.StrongPairs(0.2)
	pairTbl := &report.Table{Title: "Strongest category pairs (§VII-B)",
		Headers: []string{"tag A", "tag B", "phi", "lift"}}
	for i, p := range pairs {
		if i >= 12 {
			break
		}
		_ = pairTbl.AddRow(p.TagA, p.TagB, report.F2(p.Phi), report.F2(p.Lift))
	}
	res.Tables = append(res.Tables, pairTbl)

	hasPair := func(a, b string) bool {
		for _, p := range pairs {
			if (p.TagA == a && p.TagB == b) || (p.TagA == b && p.TagB == a) {
				return true
			}
		}
		return false
	}
	res.Checks = append(res.Checks,
		report.Check{Artifact: "E10", Metric: "third-party trigger ↔ add-compatibility fix",
			Paper: "highly correlated", Measured: fmt.Sprintf("in top pairs: %v",
				hasPair("external-call", "add-compatibility")),
			Holds: hasPair("external-call", "add-compatibility")},
		report.Check{Artifact: "E10", Metric: "concurrency ↔ add-synchronization",
			Paper: "correlated (fix shortcut)", Measured: fmt.Sprintf("in top pairs: %v",
				hasPair("concurrency", "add-synchronization")),
			Holds: hasPair("concurrency", "add-synchronization")},
	)
	return res, nil
}
