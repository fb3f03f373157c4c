package study

import (
	"math"
	"testing"
	"time"

	"sdnbugs/internal/corpus"
	"sdnbugs/internal/taxonomy"
	"sdnbugs/internal/tracker"
)

// manualStudy builds the 150-bug manual-analysis study from the
// generated corpus, as the paper's protocol does.
func manualStudy(t *testing.T) *Study {
	t.Helper()
	corp, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	issues, labels := corp.ManualSubset()
	bugs := make([]LabeledBug, len(issues))
	for i := range issues {
		bugs[i] = LabeledBug{Issue: issues[i], Label: labels[i]}
	}
	s, err := New(bugs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fullStudy builds the full 795-bug study.
func fullStudy(t *testing.T) *Study {
	t.Helper()
	corp, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	bugs := make([]LabeledBug, len(corp.Issues))
	for i, iss := range corp.Issues {
		bugs[i] = LabeledBug{Issue: iss, Label: corp.Labels[iss.ID]}
	}
	s, err := New(bugs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(nil); err != ErrNoBugs {
		t.Errorf("want ErrNoBugs, got %v", err)
	}
	bad := LabeledBug{Label: taxonomy.Label{Symptom: taxonomy.SymptomByzantine}}
	if _, err := New([]LabeledBug{bad}); err == nil {
		t.Error("want validation error for byzantine without mode")
	}
}

func TestDistribution(t *testing.T) {
	s := fullStudy(t)
	dist := s.Distribution(taxonomy.DimTrigger)
	var sum float64
	for _, sh := range dist {
		sum += sh.Fraction
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("trigger distribution sums to %v", sum)
	}
	// §V-A: configuration is the top trigger at ≈38.8 %.
	var config Share
	for _, sh := range dist {
		if sh.Category == taxonomy.TriggerConfiguration.String() {
			config = sh
		}
	}
	if math.Abs(config.Fraction-0.388) > 0.05 {
		t.Errorf("configuration trigger = %.3f, want ≈ 0.388", config.Fraction)
	}
}

func TestDeterminismByController(t *testing.T) {
	s := fullStudy(t)
	det := s.DeterminismByController()
	// §III: FAUCET 96 %, ONOS 94 %, CORD 94 %.
	for ctl, want := range map[tracker.Controller]float64{
		tracker.FAUCET: 0.96, tracker.ONOS: 0.94, tracker.CORD: 0.94,
	} {
		if math.Abs(det[ctl]-want) > 0.05 {
			t.Errorf("%s deterministic = %.3f, want ≈ %.2f", ctl, det[ctl], want)
		}
	}
}

func TestByzantineBreakdown(t *testing.T) {
	s := fullStudy(t)
	bd := s.ByzantineBreakdown()
	// §IV: gray 52.17 %, stalling 20.65 %, incorrect 27.18 %.
	wants := map[taxonomy.ByzantineMode]float64{
		taxonomy.GrayFailure:       0.5217,
		taxonomy.Stalling:          0.2065,
		taxonomy.IncorrectBehavior: 0.2718,
	}
	for mode, want := range wants {
		if math.Abs(bd[mode]-want) > 0.03 {
			t.Errorf("%v = %.3f, want ≈ %.3f", mode, bd[mode], want)
		}
	}
}

func TestCauseBySymptomFigure2(t *testing.T) {
	// The per-symptom cause structure involves small conditional
	// subsets (ONOS has only ~7 performance bugs), so this test scales
	// the specs up to where the law of large numbers applies.
	var bugs []LabeledBug
	for ctl, spec := range corpus.DefaultSpecs() {
		spec.TotalBugs = 2000
		spec.ManualCount = 0
		part, err := corpus.GenerateController(spec, 42+int64(ctl))
		if err != nil {
			t.Fatal(err)
		}
		for _, iss := range part.Issues {
			bugs = append(bugs, LabeledBug{Issue: iss, Label: part.Labels[iss.ID]})
		}
	}
	s, err := New(bugs)
	if err != nil {
		t.Fatal(err)
	}
	// FAUCET fail-stop bugs: human + ecosystem dominate (§IV).
	dist, err := s.CauseBySymptom(tracker.FAUCET, taxonomy.SymptomFailStop)
	if err != nil {
		t.Fatal(err)
	}
	var humanEco float64
	for _, sh := range dist {
		if sh.Category == taxonomy.CauseHumanMisconfig.String() ||
			sh.Category == taxonomy.CauseEcosystem.String() {
			humanEco += sh.Fraction
		}
	}
	if humanEco < 0.65 {
		t.Errorf("FAUCET fail-stop human+ecosystem = %.3f, want > 0.65", humanEco)
	}
	// Performance root causes differ per controller (§IV): FAUCET →
	// ecosystem, ONOS → concurrency, CORD → memory.
	wantTop := map[tracker.Controller]taxonomy.RootCause{
		tracker.FAUCET: taxonomy.CauseEcosystem,
		tracker.ONOS:   taxonomy.CauseConcurrency,
		tracker.CORD:   taxonomy.CauseMemory,
	}
	for ctl, want := range wantTop {
		dist, err := s.CauseBySymptom(ctl, taxonomy.SymptomPerformance)
		if err != nil {
			t.Fatal(err)
		}
		top := dist[0]
		for _, sh := range dist {
			if sh.Fraction > top.Fraction {
				top = sh
			}
		}
		if top.Category != want.String() {
			t.Errorf("%s performance top cause = %s, want %s", ctl, top.Category, want)
		}
	}
}

func TestConfigSubcategoriesTable3(t *testing.T) {
	s := fullStudy(t)
	// Table III per controller (±8 pts: conditional draws on a subset).
	wants := map[tracker.Controller]map[taxonomy.ConfigScope]float64{
		tracker.FAUCET: {taxonomy.ConfigController: 0.529, taxonomy.ConfigDataPlane: 0.117, taxonomy.ConfigThirdParty: 0.354},
		tracker.ONOS:   {taxonomy.ConfigController: 0.60, taxonomy.ConfigDataPlane: 0.15, taxonomy.ConfigThirdParty: 0.25},
		tracker.CORD:   {taxonomy.ConfigController: 0.642, taxonomy.ConfigDataPlane: 0.142, taxonomy.ConfigThirdParty: 0.216},
	}
	for ctl, scopes := range wants {
		got, err := s.ConfigSubcategories(ctl)
		if err != nil {
			t.Fatal(err)
		}
		for scope, want := range scopes {
			if math.Abs(got[scope]-want) > 0.08 {
				t.Errorf("%s %v = %.3f, want ≈ %.3f", ctl, scope, got[scope], want)
			}
		}
	}
}

func TestAnalyzeFixes(t *testing.T) {
	s := fullStudy(t)
	fa, err := s.AnalyzeFixes()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fa.ConfigBugsFixedByConfig-0.25) > 0.06 {
		t.Errorf("config-fixed-by-config = %.3f, want ≈ 0.25", fa.ConfigBugsFixedByConfig)
	}
	if math.Abs(fa.ExternalCompatibilityFixes-0.414) > 0.07 {
		t.Errorf("external compatibility fixes = %.3f, want ≈ 0.414", fa.ExternalCompatibilityFixes)
	}
	if fa.NetworkEventAddLogic < 0.5 {
		t.Errorf("network-event add-logic = %.3f, want > 0.5", fa.NetworkEventAddLogic)
	}
}

func TestResolutionCDFFigure7(t *testing.T) {
	s := fullStudy(t)
	// ONOS has the longer configuration tail than CORD (Figure 7).
	onos, err := s.ResolutionCDF(tracker.ONOS, taxonomy.TriggerConfiguration)
	if err != nil {
		t.Fatal(err)
	}
	cord, err := s.ResolutionCDF(tracker.CORD, taxonomy.TriggerConfiguration)
	if err != nil {
		t.Fatal(err)
	}
	if !(onos.Quantile(0.9) > cord.Quantile(0.9)) {
		t.Errorf("ONOS config P90 %.1f should exceed CORD %.1f",
			onos.Quantile(0.9), cord.Quantile(0.9))
	}
	// CORD's reboot tail exceeds ONOS's (specialized optical code).
	onosR, err := s.ResolutionCDF(tracker.ONOS, taxonomy.TriggerHardwareReboot)
	if err != nil {
		t.Fatal(err)
	}
	cordR, err := s.ResolutionCDF(tracker.CORD, taxonomy.TriggerHardwareReboot)
	if err != nil {
		t.Fatal(err)
	}
	if !(cordR.Quantile(0.9) > onosR.Quantile(0.9)) {
		t.Errorf("CORD reboot P90 %.1f should exceed ONOS %.1f",
			cordR.Quantile(0.9), onosR.Quantile(0.9))
	}
	// FAUCET has no resolution data at all (GitHub, §VIII).
	if _, err := s.ResolutionCDF(tracker.FAUCET, taxonomy.TriggerConfiguration); err == nil {
		t.Error("FAUCET resolution CDF should be unavailable")
	}
}

func TestReleaseBurst(t *testing.T) {
	s := fullStudy(t)
	var releases []time.Time
	for _, spec := range corpus.DefaultSpecs() {
		releases = append(releases, spec.Releases...)
	}
	burst := s.ReleaseBurst(releases, 45*24*time.Hour)
	if burst < 0.5 {
		t.Errorf("release-burst share = %.3f, want > 0.5 (bugs cluster at releases)", burst)
	}
}

func TestGuidelines(t *testing.T) {
	s := fullStudy(t)
	gs, err := s.Guidelines()
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 3 {
		t.Fatalf("got %d guidelines", len(gs))
	}
	// §VII-A recommends ONOS as most stable: lowest combined risk.
	if gs[0].Controller != tracker.ONOS {
		t.Errorf("most stable = %s, paper recommends ONOS", gs[0].Controller)
	}
	byCtl := map[tracker.Controller]ControllerGuideline{}
	for _, g := range gs {
		byCtl[g.Controller] = g
	}
	if !(byCtl[tracker.FAUCET].MissingLogicShare > byCtl[tracker.ONOS].MissingLogicShare) {
		t.Error("FAUCET must have the highest missing-logic share")
	}
	if !(byCtl[tracker.CORD].LoadShare > byCtl[tracker.ONOS].LoadShare) {
		t.Error("CORD must be more load-prone than ONOS")
	}
}

func TestCompareDomains(t *testing.T) {
	s := fullStudy(t)
	rows := s.CompareDomains()
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		switch r.Symptom {
		case taxonomy.SymptomFailStop:
			// SDN 20 % vs cloud 59 % vs BGP 39 %.
			if math.Abs(r.SDNMeasured-0.20) > 0.05 || r.CloudRef != 0.59 || r.BGPRef != 0.39 {
				t.Errorf("fail-stop row wrong: %+v", r)
			}
		case taxonomy.SymptomByzantine:
			if r.SDNMeasured < r.CloudRef {
				t.Error("SDN byzantine share must exceed cloud's (61 % vs 25 %)")
			}
		case taxonomy.SymptomErrorMessage:
			if r.CloudRef >= 0 || r.BGPRef >= 0 {
				t.Error("error-message refs must be NA (negative)")
			}
		}
	}
}

func TestFilterAndByController(t *testing.T) {
	s := fullStudy(t)
	onos, err := s.ByController(tracker.ONOS)
	if err != nil {
		t.Fatal(err)
	}
	if onos.Len() != 186 {
		t.Errorf("ONOS bugs = %d, want 186", onos.Len())
	}
	if _, err := s.Filter(func(LabeledBug) bool { return false }); err != ErrNoBugs {
		t.Errorf("want ErrNoBugs for empty filter, got %v", err)
	}
}

func TestCorrelationFigure12(t *testing.T) {
	s := fullStudy(t)
	pairs := s.CategoryCorrelations()
	if len(pairs) == 0 {
		t.Fatal("no category pairs")
	}
	for _, p := range pairs {
		if math.Abs(p.Phi) > 1+1e-9 {
			t.Fatalf("phi out of range: %+v", p)
		}
	}
	cdf, err := s.CorrelationCDF()
	if err != nil {
		t.Fatal(err)
	}
	if cdf.Min() < 0 || cdf.Max() > 1 {
		t.Errorf("correlation CDF range [%v, %v]", cdf.Min(), cdf.Max())
	}
	// Most pairs weakly correlated, a small strong tail (Figure 12).
	strong := s.StrongFraction(0.4)
	if strong <= 0 || strong > 0.2 {
		t.Errorf("strong-pair fraction = %.4f, want small but non-zero", strong)
	}
	// §VII-B: third-party calls correlate with add-compatibility fixes.
	found := false
	for _, p := range s.StrongPairs(0.2) {
		if (p.TagA == taxonomy.TriggerExternalCall.String() && p.TagB == taxonomy.FixAddCompatibility.String()) ||
			(p.TagB == taxonomy.TriggerExternalCall.String() && p.TagA == taxonomy.FixAddCompatibility.String()) {
			found = true
		}
	}
	if !found {
		t.Error("external-call ↔ add-compatibility should be a strong pair")
	}
}

func TestTopicUniquenessFigure14(t *testing.T) {
	s := manualStudy(t)
	scores, err := s.TopicUniquenessAnalysis(TopicConfig{Rank: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) == 0 {
		t.Fatal("no topic scores")
	}
	for _, sc := range scores {
		if sc.Score < 0 || sc.Score > 1+1e-9 {
			t.Errorf("score out of range: %+v", sc)
		}
		if sc.Support < topicMinSupport {
			t.Errorf("support below topicMinSupport: %+v", sc)
		}
	}
	// Results are sorted descending.
	for i := 1; i < len(scores); i++ {
		if scores[i].Score > scores[i-1].Score+1e-9 {
			t.Error("scores not sorted")
			break
		}
	}
}

func TestTopicUniquenessLDA(t *testing.T) {
	s := manualStudy(t)
	scores, err := s.TopicUniquenessAnalysisLDA(TopicConfig{Rank: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) == 0 {
		t.Fatal("no LDA topic scores")
	}
	for _, sc := range scores {
		if sc.Score < 0 || sc.Score > 1+1e-9 {
			t.Errorf("score out of range: %+v", sc)
		}
	}
	for i := 1; i < len(scores); i++ {
		if scores[i].Score > scores[i-1].Score+1e-9 {
			t.Error("LDA scores not sorted")
			break
		}
	}
}

func TestValidateRepeatedErrors(t *testing.T) {
	s := manualStudy(t)
	if _, err := NewValidator(s.Bugs()).ValidateRepeated(PipelineConfig{}, 0); err == nil {
		t.Error("want error for repeats < 1")
	}
}
