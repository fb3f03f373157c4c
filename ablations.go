package sdnbugs

import (
	"fmt"

	"sdnbugs/internal/engine"
	"sdnbugs/internal/recovery"
	"sdnbugs/internal/report"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/study"
	"sdnbugs/internal/taxonomy"
)

// registerAblations registers the design-choice studies (A01–A07)
// with the engine in order.
func (s *Suite) registerAblations(r *engine.Registry[ExperimentResult]) {
	registerSuite(r, "A01", "Ablation: feature blocks (TF-IDF vs Word2Vec vs both)", engine.KindAblation, s.ablationFeatures)
	registerSuite(r, "A02", "Ablation: feature normalization for the SVM", engine.KindAblation, s.ablationScaling)
	registerSuite(r, "A03", "Ablation: NMF rank sensitivity (Figure 14)", engine.KindAblation, s.ablationNMFRank)
	registerSuite(r, "A04", "Ablation: extending input-transform tools beyond network events", engine.KindAblation, s.ablationTransformScope)
	registerSuite(r, "A05", "Ablation: NMF vs LDA topic models (Figure 14)", engine.KindAblation, s.ablationTopicModel)
	registerSuite(r, "A06", "Ablation: predictive rejuvenation vs the memory/load gap", engine.KindAblation, s.ablationPrediction)
	registerSuite(r, "A07", "Ablation: naive tool composition (SPHINX ⊕ Bouncer, §VII-C)", engine.KindAblation, s.ablationLayering)
}

// ablationFeatures compares the classification feature blocks: TF-IDF
// only, Word2Vec only, and the paper's concatenation of both.
func (s *Suite) ablationFeatures() (ExperimentResult, error) {
	var res ExperimentResult
	val, err := s.Validator()
	if err != nil {
		return res, err
	}
	variants := []struct {
		name string
		cfg  study.PipelineConfig
	}{
		{"tfidf+w2v", study.PipelineConfig{Seed: s.Seed, Workers: s.Workers}},
		{"tfidf-only", study.PipelineConfig{Seed: s.Seed, Workers: s.Workers, DisableW2V: true}},
		{"w2v-only", study.PipelineConfig{Seed: s.Seed, Workers: s.Workers, DisableTFIDF: true}},
	}
	tbl := &report.Table{Title: "SVM accuracy by feature block",
		Headers: []string{"features", "bug-type", "symptom", "trigger"}}
	acc := map[string]map[taxonomy.Dimension]float64{}
	for _, v := range variants {
		results, err := val.ValidateRepeated(v.cfg, 2)
		if err != nil {
			return res, fmt.Errorf("sdnbugs: ablation %s: %w", v.name, err)
		}
		acc[v.name] = map[taxonomy.Dimension]float64{}
		for _, r := range results {
			acc[v.name][r.Dimension] = r.Accuracies[study.ModelSVM]
		}
		_ = tbl.AddRow(v.name,
			report.Pct(acc[v.name][taxonomy.DimType]),
			report.Pct(acc[v.name][taxonomy.DimSymptom]),
			report.Pct(acc[v.name][taxonomy.DimTrigger]))
	}
	res.Tables = append(res.Tables, tbl)
	// The combined features must not lose badly to either block alone
	// on the paper's headline dimensions.
	both := acc["tfidf+w2v"]
	for _, d := range []taxonomy.Dimension{taxonomy.DimType, taxonomy.DimSymptom} {
		best := both[d]
		for _, v := range []string{"tfidf-only", "w2v-only"} {
			if acc[v][d] > best {
				best = acc[v][d]
			}
		}
		res.Checks = append(res.Checks, report.Check{
			Metric:   d.String() + ": combined features competitive",
			Paper:    "paper uses TF-IDF + Word2Vec",
			Measured: fmt.Sprintf("both %s vs best single %s", report.Pct(both[d]), report.Pct(best)),
			Holds:    both[d] >= best-0.08,
		})
	}
	return res, nil
}

// ablationScaling compares the SVM with and without feature
// normalization (the paper: "SVM with normalization provided the best
// accuracy").
func (s *Suite) ablationScaling() (ExperimentResult, error) {
	var res ExperimentResult
	val, err := s.Validator()
	if err != nil {
		return res, err
	}
	// This is byte-for-byte the protocol E09 runs; the shared validator
	// answers the duplicate from cache.
	results, err := val.ValidateRepeated(study.PipelineConfig{Seed: s.Seed, Workers: s.Workers}, 3)
	if err != nil {
		return res, err
	}
	tbl := &report.Table{Title: "Normalized vs raw features (SVM)",
		Headers: []string{"dimension", "normalized", "raw"}}
	var normWins int
	var dims int
	for _, r := range results {
		norm := r.Accuracies[study.ModelSVM]
		raw := r.Accuracies[study.ModelSVMNoNorm]
		_ = tbl.AddRow(r.Dimension.String(), report.Pct(norm), report.Pct(raw))
		dims++
		if norm >= raw {
			normWins++
		}
	}
	res.Tables = append(res.Tables, tbl)
	res.Checks = append(res.Checks, report.Check{
		Metric:   "normalization wins on most dimensions",
		Paper:    "SVM with normalization best",
		Measured: fmt.Sprintf("%d/%d dimensions", normWins, dims),
		Holds:    normWins*2 >= dims,
	})
	return res, nil
}

// ablationNMFRank studies topic-count sensitivity of the Figure 14
// analysis.
func (s *Suite) ablationNMFRank() (ExperimentResult, error) {
	var res ExperimentResult
	manual, err := s.Manual()
	if err != nil {
		return res, err
	}
	tbl := &report.Table{Title: "Deterministic-tag uniqueness by NMF rank",
		Headers: []string{"rank", "deterministic", "byzantine", "scored tags"}}
	stable := true
	for _, rank := range []int{6, 10, 14, 18} {
		scores, err := manual.TopicUniquenessAnalysis(study.TopicConfig{Rank: rank, Seed: s.Seed})
		if err != nil {
			return res, err
		}
		var det, byz float64
		for _, sc := range scores {
			switch sc.Tag {
			case "deterministic":
				det = sc.Score
			case "byzantine":
				byz = sc.Score
			}
		}
		if det <= 0 || byz <= 0 {
			stable = false
		}
		_ = tbl.AddRow(fmt.Sprintf("%d", rank), report.F2(det), report.F2(byz),
			fmt.Sprintf("%d", len(scores)))
	}
	res.Tables = append(res.Tables, tbl)
	res.Checks = append(res.Checks, report.Check{
		Metric:   "headline categories scored at every rank",
		Paper:    "topic structure robust",
		Measured: fmt.Sprintf("stable: %v", stable),
		Holds:    stable,
	})
	return res, nil
}

// ablationTransformScope contrasts the network-event-scoped transform
// tool with an extended variant covering all event sources — the
// paper's recommendation for closing Table VII's gaps.
func (s *Suite) ablationTransformScope() (ExperimentResult, error) {
	var res ExperimentResult
	stock := &recovery.EventTransform{}
	extended := &recovery.EventTransform{Scope: []sdn.EventKind{
		sdn.EventNetwork, sdn.EventConfig, sdn.EventExternalCall, sdn.EventHardwareReboot,
	}}
	m, err := recovery.Evaluate([]recovery.Strategy{stock, extended},
		recovery.EvalConfig{Trials: 4, Seed: s.Seed})
	if err != nil {
		return res, err
	}
	tbl := &report.Table{Title: "Coverage: stock vs extended event transform",
		Headers: []string{"fault", stock.Name(), extended.Name()}}
	gained := 0
	for _, f := range m.Faults() {
		cs, _ := m.Cell(f, stock.Name())
		ce, _ := m.Cell(f, extended.Name())
		mark := func(c recovery.CellResult) string {
			if c.Recovers() {
				return fmt.Sprintf("✓ %.2f", c.Rate())
			}
			return fmt.Sprintf("  %.2f", c.Rate())
		}
		if ce.Recovers() && !cs.Recovers() {
			gained++
		}
		_ = tbl.AddRow(f, mark(cs), mark(ce))
	}
	res.Tables = append(res.Tables, tbl)
	res.Checks = append(res.Checks, report.Check{
		Metric:   "extended scope covers additional fault classes",
		Paper:    "extend tools beyond network events (§VII-C)",
		Measured: fmt.Sprintf("%d extra classes covered", gained),
		Holds:    gained >= 2,
	})
	return res, nil
}

// ablationTopicModel compares NMF (the paper's choice) with LDA (the
// alternative it weighed, §II-C) on the Figure 14 topic-uniqueness
// analysis.
func (s *Suite) ablationTopicModel() (ExperimentResult, error) {
	var res ExperimentResult
	manual, err := s.Manual()
	if err != nil {
		return res, err
	}
	cfg := study.TopicConfig{Rank: 12, Seed: s.Seed}
	nmfScores, err := manual.TopicUniquenessAnalysis(cfg)
	if err != nil {
		return res, err
	}
	ldaScores, err := manual.TopicUniquenessAnalysisLDA(cfg)
	if err != nil {
		return res, err
	}
	nmfByTag := map[string]float64{}
	for _, sc := range nmfScores {
		nmfByTag[sc.Tag] = sc.Score
	}
	ldaByTag := map[string]float64{}
	for _, sc := range ldaScores {
		ldaByTag[sc.Tag] = sc.Score
	}
	tbl := &report.Table{Title: "Topic uniqueness: NMF vs LDA",
		Headers: []string{"category", "nmf", "lda"}}
	headline := []string{"deterministic", "byzantine", "add-synchronization", "third-party-call", "configuration"}
	for _, tag := range headline {
		nv, nok := nmfByTag[tag]
		lv, lok := ldaByTag[tag]
		if !nok && !lok {
			continue
		}
		_ = tbl.AddRow(tag, report.F2(nv), report.F2(lv))
	}
	res.Tables = append(res.Tables, tbl)

	// The two models must broadly agree on which categories are unique
	// — the analysis is not an artifact of the factorization choice.
	agree := 0
	compared := 0
	for _, tag := range headline {
		nv, nok := nmfByTag[tag]
		lv, lok := ldaByTag[tag]
		if !nok || !lok {
			continue
		}
		compared++
		if (nv > 0.3) == (lv > 0.3) {
			agree++
		}
	}
	res.Checks = append(res.Checks, report.Check{
		Metric:   "NMF and LDA agree on headline categories",
		Paper:    "topic choice robust (paper picked NMF over LDA/HDP)",
		Measured: fmt.Sprintf("%d/%d categories agree", agree, compared),
		Holds:    compared > 0 && agree*3 >= compared*2,
	})
	return res, nil
}

// ablationPrediction evaluates the paper's proposed research direction
// (§IV): metrics-based failure prediction with proactive rejuvenation
// closing the memory/load gap that Table VII's surveyed tools leave.
func (s *Suite) ablationPrediction() (ExperimentResult, error) {
	var res ExperimentResult
	m, err := recovery.Evaluate([]recovery.Strategy{
		recovery.CrashRestart{},
		&recovery.PredictiveRejuvenation{},
	}, recovery.EvalConfig{Trials: 4, Seed: s.Seed})
	if err != nil {
		return res, err
	}
	tbl := &report.Table{Title: "Reactive restart vs predictive rejuvenation",
		Headers: []string{"fault", "crash-restart", "predictive-rejuvenation"}}
	for _, f := range m.Faults() {
		cr, _ := m.Cell(f, "crash-restart")
		pr, _ := m.Cell(f, "predictive-rejuvenation")
		_ = tbl.AddRow(f, report.F2(cr.Rate()), report.F2(pr.Rate()))
	}
	res.Tables = append(res.Tables, tbl)
	for _, f := range []string{"ONOS-4859-memory-leak", "ONOS-5992-load-collapse"} {
		cr, _ := m.Cell(f, "crash-restart")
		pr, _ := m.Cell(f, "predictive-rejuvenation")
		res.Checks = append(res.Checks, report.Check{
			Metric:   f + ": prediction beats reactive restart",
			Paper:    "predict crashes by analyzing metrics (§IV)",
			Measured: fmt.Sprintf("%.2f vs %.2f", pr.Rate(), cr.Rate()),
			Holds:    pr.Recovers() && !cr.Recovers(),
		})
	}
	return res, nil
}

// ablationLayering reproduces §VII-C's composition caveat empirically:
// SPHINX-style flow-graph monitoring needs every input message, so a
// Bouncer-style proactive filter layered outside it leaves the model
// incomplete — naive composition "impacts accuracy".
func (s *Suite) ablationLayering() (ExperimentResult, error) {
	var res ExperimentResult
	comp, err := recovery.RunCompositionExperiment()
	if err != nil {
		return res, err
	}
	tbl := &report.Table{Title: "Flow-graph model completeness under composition",
		Headers: []string{"configuration", "model completeness"}}
	_ = tbl.AddRow("monitor alone (sees all packet-ins)", report.Pct(comp.UnfilteredCompleteness))
	_ = tbl.AddRow("input filter layered outside monitor", report.Pct(comp.FilteredCompleteness))
	res.Tables = append(res.Tables, tbl)
	res.Checks = append(res.Checks,
		report.Check{Metric: "monitor alone builds a complete model",
			Paper:    "SPHINX requires all input OpenFlow messages",
			Measured: report.Pct(comp.UnfilteredCompleteness),
			Holds:    comp.UnfilteredCompleteness == 1},
		report.Check{Metric: "filtering degrades the layered model",
			Paper: "filters may lead to an inconsistent flow graph (§VII-C)",
			Measured: fmt.Sprintf("%s → %s", report.Pct(comp.UnfilteredCompleteness),
				report.Pct(comp.FilteredCompleteness)),
			Holds: comp.FilteredCompleteness < comp.UnfilteredCompleteness},
	)
	return res, nil
}
