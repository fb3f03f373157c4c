package study

import (
	"reflect"
	"testing"
)

// fastCfg keeps validation tests quick: a smaller vocabulary and fewer
// Word2Vec epochs than the defaults, but the full five-model grid.
func fastCfg(workers int) PipelineConfig {
	return PipelineConfig{Seed: 1, MaxVocab: 150, W2VDim: 16, W2VEpochs: 2, Workers: workers}
}

// TestValidatorWorkersDeterministic is the tentpole's determinism
// contract: the parallel validation grid must return bit-identical
// results for every worker count. Separate Validators per setting so
// the run cache cannot mask a real divergence.
func TestValidatorWorkersDeterministic(t *testing.T) {
	bugs := manualStudy(t).Bugs()
	var base []ValidationResult
	for _, workers := range []int{1, 4} {
		v := NewValidator(bugs)
		res, err := v.ValidateRepeated(fastCfg(workers), 2)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("workers=%d results differ from workers=1:\n%+v\nvs\n%+v", workers, res, base)
		}
	}
}

// TestValidatorMatchesSingleShot pins the cache: a Validator primed
// by other runs must agree exactly with a single-shot Validate on a
// fresh one.
func TestValidatorMatchesSingleShot(t *testing.T) {
	bugs := manualStudy(t).Bugs()
	cfg := fastCfg(1)
	want, err := NewValidator(bugs).Validate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := NewValidator(bugs)
	// Prime the caches with a repeated run and a pipeline first; repeat
	// 0 shares cfg.Seed, so the subsequent Validate must be a cache hit
	// that still equals the fresh computation.
	if _, err := v.ValidateRepeated(cfg, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Pipeline(cfg); err != nil {
		t.Fatal(err)
	}
	got, err := v.Validate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("primed validator result differs from a fresh one:\n%+v\nvs\n%+v", got, want)
	}
}

// TestPipelineSharesValidatorFeatures pins the single fitting path: a
// Pipeline built after Validate(cfg) holds the validator's own TF-IDF
// vectorizer and Word2Vec model, so each is fitted exactly once.
func TestPipelineSharesValidatorFeatures(t *testing.T) {
	v := NewValidator(manualStudy(t).Bugs())
	cfg := fastCfg(1)
	if _, err := v.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	p, err := v.Pipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.vecs) != 1 || len(v.w2vs) != 1 {
		t.Fatalf("validator fitted %d vectorizers and %d Word2Vec models, want 1 each", len(v.vecs), len(v.w2vs))
	}
	vec, w2v, err := v.features(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if p.vec != vec {
		t.Error("pipeline fitted its own TF-IDF vectorizer instead of the validator's")
	}
	if p.w2v != w2v {
		t.Error("pipeline trained its own Word2Vec model instead of the validator's")
	}
}

// TestValidatorCacheIsolation checks callers own the returned results:
// mutating one call's maps must not corrupt later calls.
func TestValidatorCacheIsolation(t *testing.T) {
	bugs := manualStudy(t).Bugs()
	v := NewValidator(bugs)
	cfg := fastCfg(1)
	first, err := v.Validate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cloneResults(first)
	for i := range first {
		first[i].Accuracies[ModelSVM] = -1
		first[i].Best = "corrupted"
	}
	second, err := v.Validate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, second) {
		t.Fatalf("mutation leaked into validator cache:\n%+v\nvs\n%+v", second, want)
	}
}

// TestValidatorBestUsesCanonicalOrder pins the tie-break: on equal
// accuracies the earlier model in modelOrder wins, never map order.
func TestValidatorBestUsesCanonicalOrder(t *testing.T) {
	order := modelOrder()
	specs := modelSpecs(PipelineConfig{})
	if len(order) != len(specs) {
		t.Fatalf("modelOrder has %d entries, modelSpecs %d", len(order), len(specs))
	}
	for i, m := range order {
		if specs[i].name != m {
			t.Fatalf("spec %d is %s, want %s", i, specs[i].name, m)
		}
	}
}

// TestPipelineWorkersDeterministic covers the pipeline's parallel
// stages (per-dimension training, batch prediction): the fitted
// pipeline must predict identically for every worker count.
func TestPipelineWorkersDeterministic(t *testing.T) {
	bugs := manualStudy(t).Bugs()
	var base []string
	for _, workers := range []int{1, 4} {
		p, err := NewValidator(bugs).Pipeline(fastCfg(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var labels []string
		for _, b := range bugs[:30] {
			l, err := p.Predict(b.Issue)
			if err != nil {
				t.Fatalf("workers=%d predict %s: %v", workers, b.Issue.ID, err)
			}
			labels = append(labels, l.Type.String()+"/"+l.Symptom.String()+"/"+l.Trigger.String())
		}
		if base == nil {
			base = labels
			continue
		}
		if !reflect.DeepEqual(base, labels) {
			t.Fatalf("workers=%d predictions differ from workers=1", workers)
		}
	}
}
