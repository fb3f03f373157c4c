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
	registerSuite(r, "E01", "§II-B data set: tracker mining and corpus shape", engine.KindExperiment, s.e01CorpusMining)
	registerSuite(r, "E02", "§III bug type: determinism per controller", engine.KindExperiment, s.e02Determinism)
	registerSuite(r, "E03", "§IV operational impact: symptom distribution", engine.KindExperiment, s.e03Symptoms)
	registerSuite(r, "E04", "Figure 2: root causes by symptom and controller", engine.KindExperiment, s.e04RootCauseBySymptom)
	registerSuite(r, "E05", "§V-A bug triggers", engine.KindExperiment, s.e05Triggers)
	registerSuite(r, "E06", "Table III: configuration sub-categories", engine.KindExperiment, s.e06ConfigSubcategories)
	registerSuite(r, "E07", "§V-A fixes: config and compatibility shares", engine.KindExperiment, s.e07FixAnalysis)
	registerSuite(r, "E08", "Figure 7: resolution-time CDFs per trigger", engine.KindExperiment, s.e08ResolutionCDF)
	registerSuite(r, "E09", "§II-C NLP validation: SVM vs DT vs AdaBoost vs PCA", engine.KindExperiment, s.e09NLPValidation)
	registerSuite(r, "E10", "Figure 12: bug-category correlation CDF", engine.KindExperiment, s.e10CorrelationCDF)
}

// e01CorpusMining reproduces §II-B's data collection: the corpus is
// loaded into the JIRA and GitHub simulators and mined back over HTTP,
// checking the published per-controller critical-bug counts (251 /
// 186 / 358) and the burst of bug creation around releases.
func (s *Suite) e01CorpusMining() (ExperimentResult, error) {
	var res ExperimentResult
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
		c := report.CountEquals(ctl.String()+" critical bugs", wants[ctl], mined[ctl])
		res.Checks = append(res.Checks, c)
		_ = tbl.AddRow(ctl.String(), tracker.TrackerFor(ctl).String(), c.Paper, c.Measured)
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
		Metric:   "keyword severity heuristic flags critical bugs",
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
	res.Checks = append(res.Checks,
		report.ShareAbove("bugs created within 45d after a release", "bursts observed", burst, 0.5))
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// e02Determinism reproduces §III: determinism share per controller.
func (s *Suite) e02Determinism() (ExperimentResult, error) {
	var res ExperimentResult
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
		c := report.ShareWithin(ctl.String()+" deterministic", wants[ctl], det[ctl], 0.05)
		res.Checks = append(res.Checks, c)
		_ = tbl.AddRow(ctl.String(), c.Paper, c.Measured)
	}
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// e03Symptoms reproduces §IV: symptom distribution and the byzantine
// breakdown.
func (s *Suite) e03Symptoms() (ExperimentResult, error) {
	var res ExperimentResult
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
		c := report.ShareWithin(sh.Category, wants[sym], sh.Fraction, 0.05)
		res.Checks = append(res.Checks, c)
		_ = tbl.AddRow(sh.Category, c.Paper, c.Measured)
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
		c := report.ShareWithin("byzantine/"+m.String(), bzWants[m], bz[m], 0.04)
		res.Checks = append(res.Checks, c)
		_ = bzTbl.AddRow(m.String(), c.Paper, c.Measured)
	}
	res.Tables = append(res.Tables, bzTbl)
	return res, nil
}

// e04RootCauseBySymptom reproduces Figure 2: root causes of fail-stop
// and performance bugs per controller.
func (s *Suite) e04RootCauseBySymptom() (ExperimentResult, error) {
	var res ExperimentResult
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
	res.Checks = append(res.Checks,
		report.ShareAbove("FAUCET fail-stop from human+ecosystem", "majority", fhe, 0.5))
	for _, ctl := range []tracker.Controller{tracker.ONOS, tracker.CORD} {
		logic, err := share(ctl, taxonomy.SymptomFailStop, isLogic)
		if err != nil {
			return res, err
		}
		res.Checks = append(res.Checks,
			report.ShareAbove(ctl.String()+" fail-stop from controller logic", "majority", logic, 0.5))
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
		Metric:   "CORD fail-stop missing-logic vs ONOS",
		Paper:    "CORD > ONOS",
		Measured: fmt.Sprintf("%s vs %s", report.Pct(cordMissing), report.Pct(onosMissing)),
		Holds:    cordMissing > onosMissing,
	})
	return res, nil
}

// e05Triggers reproduces §V-A: the trigger distribution.
func (s *Suite) e05Triggers() (ExperimentResult, error) {
	var res ExperimentResult
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
		c := report.ShareWithin(sh.Category, wants[trig], sh.Fraction, 0.05)
		res.Checks = append(res.Checks, c)
		_ = tbl.AddRow(sh.Category, c.Paper, c.Measured)
	}
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// e06ConfigSubcategories reproduces Table III.
func (s *Suite) e06ConfigSubcategories() (ExperimentResult, error) {
	var res ExperimentResult
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
			c := report.ShareWithin(ctl.String()+" "+scope.String(), wants[ctl][scope], got[scope], 0.09)
			res.Checks = append(res.Checks, c)
			_ = tbl.AddRow(ctl.String(), scope.String(), c.Paper, c.Measured)
		}
	}
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// e07FixAnalysis reproduces §V-A's fix findings.
func (s *Suite) e07FixAnalysis() (ExperimentResult, error) {
	var res ExperimentResult
	full, err := s.Full()
	if err != nil {
		return res, err
	}
	fa, err := full.AnalyzeFixes()
	if err != nil {
		return res, err
	}
	res.Checks = []report.Check{
		report.ShareWithin("config bugs fixed by config change", 0.25, fa.ConfigBugsFixedByConfig, 0.06),
		report.ShareWithin("external-call compatibility/upgrade fixes", 0.414, fa.ExternalCompatibilityFixes, 0.07),
		report.ShareAbove("network-event bugs fixed by adding logic", "majority", fa.NetworkEventAddLogic, 0.5),
	}
	tbl := &report.Table{Title: "Fix analysis (§V-A)", Headers: []string{"metric", "paper", "measured"}}
	for i, row := range []string{"config fixed by config", "external compat fixes", "network-event add-logic"} {
		_ = tbl.AddRow(row, res.Checks[i].Paper, res.Checks[i].Measured)
	}
	res.Tables = append(res.Tables, tbl)
	return res, nil
}

// e08ResolutionCDF reproduces Figure 7: resolution-time CDFs per
// trigger for ONOS and CORD (FAUCET's GitHub data has no timestamps).
func (s *Suite) e08ResolutionCDF() (ExperimentResult, error) {
	var res ExperimentResult
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
			Metric:   c.metric,
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
			Metric:   ctl + " configuration is the slowest-resolving trigger",
			Paper:    "longest tail",
			Measured: fmt.Sprintf("P90 %.0fd", conf),
			Holds:    worst,
		})
	}
	return res, nil
}

// e09NLPValidation reproduces §II-C's model validation.
func (s *Suite) e09NLPValidation() (ExperimentResult, error) {
	var res ExperimentResult
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
		report.Check{Metric: "SVM bug-type accuracy",
			Paper: "≈96%", Measured: report.Pct(typeAcc), Holds: typeAcc >= 0.90},
		report.Check{Metric: "SVM symptom accuracy",
			Paper: "≈86%", Measured: report.Pct(symAcc), Holds: symAcc >= 0.72 && symAcc <= 0.97},
		report.Check{Metric: "fix prediction is poor",
			Paper: "no accurate model found", Measured: report.Pct(fixAcc), Holds: fixAcc < symAcc-0.2},
		report.Check{Metric: "normalization helps the SVM",
			Paper: "SVM with normalization best",
			Measured: fmt.Sprintf("sym %s vs %s unnormalized", report.Pct(symAcc),
				report.Pct(byDim[taxonomy.DimSymptom].Accuracies[study.ModelSVMNoNorm])),
			Holds: symAcc >= byDim[taxonomy.DimSymptom].Accuracies[study.ModelSVMNoNorm]},
	)
	return res, nil
}

// e10CorrelationCDF reproduces Figure 12: the bug-category correlation
// CDF and its strong tail.
func (s *Suite) e10CorrelationCDF() (ExperimentResult, error) {
	var res ExperimentResult
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
		Metric:   "strongly correlated pair share",
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
		report.Check{Metric: "third-party trigger ↔ add-compatibility fix",
			Paper: "highly correlated", Measured: fmt.Sprintf("in top pairs: %v",
				hasPair("external-call", "add-compatibility")),
			Holds: hasPair("external-call", "add-compatibility")},
		report.Check{Metric: "concurrency ↔ add-synchronization",
			Paper: "correlated (fix shortcut)", Measured: fmt.Sprintf("in top pairs: %v",
				hasPair("concurrency", "add-synchronization")),
			Holds: hasPair("concurrency", "add-synchronization")},
	)
	return res, nil
}
