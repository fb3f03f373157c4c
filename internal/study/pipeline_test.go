package study

import (
	"errors"
	"testing"

	"sdnbugs/internal/taxonomy"
	"sdnbugs/internal/tracker"
)

func TestPipelineFitPredict(t *testing.T) {
	s := manualStudy(t)
	p, err := NewValidator(s.Bugs()).Pipeline(PipelineConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Predictions must be valid, complete labels.
	for _, b := range s.Bugs()[:20] {
		l, err := p.Predict(b.Issue)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("predicted label invalid: %v", err)
		}
		if !l.Complete() {
			t.Fatalf("predicted label incomplete: %+v", l)
		}
	}
}

func TestPipelineTrainingAccuracy(t *testing.T) {
	// On its own training set the pipeline should recover bug type and
	// trigger well — the text carries those signals.
	s := manualStudy(t)
	p, err := NewValidator(s.Bugs()).Pipeline(PipelineConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var typeHits, trigHits int
	for _, b := range s.Bugs() {
		l, err := p.Predict(b.Issue)
		if err != nil {
			t.Fatal(err)
		}
		if l.Type == b.Label.Type {
			typeHits++
		}
		if l.Trigger == b.Label.Trigger {
			trigHits++
		}
	}
	n := float64(s.Len())
	if acc := float64(typeHits) / n; acc < 0.90 {
		t.Errorf("training bug-type accuracy = %.3f, want >= 0.90", acc)
	}
	if acc := float64(trigHits) / n; acc < 0.80 {
		t.Errorf("training trigger accuracy = %.3f, want >= 0.80", acc)
	}
}

func TestPredictBeforeFit(t *testing.T) {
	var p Pipeline
	if _, err := p.Predict(tracker.Issue{Description: "x"}); !errors.Is(err, ErrPipelineNotFitted) {
		t.Errorf("want ErrPipelineNotFitted, got %v", err)
	}
}

func TestPipelineNeedsFeatures(t *testing.T) {
	s := manualStudy(t)
	if _, err := NewValidator(s.Bugs()).Pipeline(PipelineConfig{DisableTFIDF: true, DisableW2V: true}); err == nil {
		t.Error("want error when both feature blocks disabled")
	}
}

func TestValidateProtocol(t *testing.T) {
	// E9: the paper's 2/3–1/3 validation. Bug type should validate at
	// ≈96 %, symptoms ≈86 %, and fixes poorly.
	s := manualStudy(t)
	results, err := NewValidator(s.Bugs()).Validate(PipelineConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d dimensions", len(results))
	}
	byDim := map[taxonomy.Dimension]ValidationResult{}
	for _, r := range results {
		byDim[r.Dimension] = r
	}
	typeAcc := byDim[taxonomy.DimType].Accuracies[ModelSVM]
	symAcc := byDim[taxonomy.DimSymptom].Accuracies[ModelSVM]
	fixAcc := byDim[taxonomy.DimFix].Accuracies[ModelSVM]
	if typeAcc < 0.88 {
		t.Errorf("SVM bug-type accuracy = %.3f, paper reports ≈ 0.96", typeAcc)
	}
	if symAcc < 0.70 || symAcc > 0.98 {
		t.Errorf("SVM symptom accuracy = %.3f, paper reports ≈ 0.86", symAcc)
	}
	if !(fixAcc < symAcc) {
		t.Errorf("fix accuracy %.3f should be worse than symptom %.3f (paper: fixes unpredictable)", fixAcc, symAcc)
	}
	if !(typeAcc >= symAcc) {
		t.Errorf("bug type (%.3f) should be easier than symptoms (%.3f)", typeAcc, symAcc)
	}
	// Every model reports an accuracy in [0, 1].
	for _, r := range results {
		for m, a := range r.Accuracies {
			if a < 0 || a > 1 {
				t.Errorf("%v/%s accuracy %v out of range", r.Dimension, m, a)
			}
		}
		if r.Best == "" {
			t.Errorf("%v has no best model", r.Dimension)
		}
	}
}

func TestValidateTooFewBugs(t *testing.T) {
	s := manualStudy(t)
	if _, err := NewValidator(s.Bugs()[:5]).Validate(PipelineConfig{}); err == nil {
		t.Error("want error for tiny training set")
	}
}

func TestPredictAllOnFullCorpus(t *testing.T) {
	// E12: train on the manual set, predict the whole corpus, and check
	// the Figure 13 headline — configuration is the dominant predicted
	// trigger and network events a small share.
	manual := manualStudy(t)
	full := fullStudy(t)
	p, err := NewValidator(manual.Bugs()).Pipeline(PipelineConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	issues := make([]tracker.Issue, 0, 200)
	for i, b := range full.Bugs() {
		if i%4 == 0 { // subsample for test speed
			issues = append(issues, b.Issue)
		}
	}
	labels, err := p.PredictAll(issues)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[taxonomy.Trigger]int{}
	for _, l := range labels {
		counts[l.Trigger]++
	}
	n := float64(len(labels))
	if frac := float64(counts[taxonomy.TriggerConfiguration]) / n; frac < 0.25 {
		t.Errorf("predicted configuration share = %.3f, should be dominant", frac)
	}
	if frac := float64(counts[taxonomy.TriggerNetworkEvent]) / n; frac > 0.40 {
		t.Errorf("predicted network-event share = %.3f, should be small", frac)
	}
}
