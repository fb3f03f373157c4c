package study

import (
	"errors"
	"fmt"
	"sync"

	"sdnbugs/internal/mathx"
	"sdnbugs/internal/ml"
	"sdnbugs/internal/ml/adaboost"
	"sdnbugs/internal/ml/dtree"
	"sdnbugs/internal/ml/pca"
	"sdnbugs/internal/ml/svm"
	"sdnbugs/internal/nlp/tfidf"
	"sdnbugs/internal/nlp/word2vec"
	"sdnbugs/internal/parallel"
	"sdnbugs/internal/taxonomy"
)

// ModelName identifies a classifier family in validation results.
type ModelName string

// Model names compared in §II-C.
const (
	ModelSVM       ModelName = "svm"
	ModelSVMNoNorm ModelName = "svm-no-normalization"
	ModelDTree     ModelName = "decision-tree"
	ModelAdaBoost  ModelName = "adaboost"
	ModelPCASVM    ModelName = "pca+svm"
)

// modelOrder is the canonical comparison order: ties in accuracy are
// broken toward the earlier model, and all reductions over models walk
// this order so results never depend on map iteration.
func modelOrder() []ModelName {
	return []ModelName{ModelSVM, ModelSVMNoNorm, ModelDTree, ModelAdaBoost, ModelPCASVM}
}

// modelSpec describes one grid column: which classifier to construct
// and which feature variant (raw or L2-normalized) it trains on.
type modelSpec struct {
	name       ModelName
	normalized bool
	newClf     func() ml.Classifier
}

// modelSpecs returns fresh constructors for the §II-C comparison, in
// modelOrder. Each grid cell builds its own classifier so cells can
// train concurrently without sharing mutable state.
func modelSpecs(cfg PipelineConfig) []modelSpec {
	newSVM := func() *svm.Multiclass {
		return &svm.Multiclass{Epochs: 80, Lambda: 1e-4, Balanced: true, Seed: cfg.Seed}
	}
	return []modelSpec{
		{ModelSVM, true, func() ml.Classifier { return newSVM() }},
		{ModelSVMNoNorm, false, func() ml.Classifier { return newSVM() }},
		{ModelDTree, false, func() ml.Classifier { return &dtree.Tree{MaxDepth: 10} }},
		{ModelAdaBoost, false, func() ml.Classifier { return &adaboost.Ensemble{Rounds: 40} }},
		{ModelPCASVM, true, func() ml.Classifier {
			return &pca.Reduced{Components: 24, Inner: newSVM()}
		}},
	}
}

// ValidationResult holds per-model test accuracies for one dimension.
type ValidationResult struct {
	Dimension  taxonomy.Dimension
	Accuracies map[ModelName]float64
	// Best is the model with the highest accuracy (earliest in
	// modelOrder on ties).
	Best ModelName
}

// buildFeatures stacks the TF-IDF and Word2Vec blocks for every
// document into one matrix; either block may be nil. scale applies
// unit-L2 row normalization ("normalization" in the paper's sense).
func buildFeatures(vec *tfidf.Vectorizer, w2v *word2vec.Model, docs [][]string, scale bool) (*mathx.Matrix, error) {
	var dim int
	if vec != nil {
		dim += vec.VocabSize()
	}
	if w2v != nil {
		dim += w2v.Dim()
	}
	x := mathx.NewMatrix(len(docs), dim)
	for i, doc := range docs {
		row := x.Row(i)
		off := 0
		if vec != nil {
			v, err := vec.Transform(doc)
			if err != nil {
				return nil, fmt.Errorf("study: tfidf transform: %w", err)
			}
			copy(row[:len(v)], v)
			off = len(v)
		}
		if w2v != nil {
			copy(row[off:], w2v.DocVector(doc))
		}
		if scale {
			mathx.Normalize(row)
		}
	}
	return x, nil
}

// Validator runs the §II-C validation protocol over one fixed labeled
// set, caching everything that is invariant across runs: the tokenized
// corpus and per-dimension label indices (split-independent), fitted
// TF-IDF vocabularies (seed-independent), trained Word2Vec models
// (keyed by their full config, including seed), and whole Validate
// results (keyed by the normalized config). Pipeline fits its
// classifiers on the same cached features. A Validator therefore
// does each distinct piece of work exactly once no matter how many
// repeats, ablation variants, pipelines, or concurrent experiments
// ask for it.
//
// All methods are safe for concurrent use; duplicate concurrent
// requests for the same artifact are single-flighted through
// sync.Once entries, so one goroutine computes and the rest wait.
type Validator struct {
	bugs []LabeledBug

	docsOnce sync.Once
	docs     [][]string

	labelsOnce sync.Once
	labels     map[taxonomy.Dimension][]int
	labelsErr  error

	mu   sync.Mutex
	vecs map[int]*vecEntry             // MaxVocab -> fitted TF-IDF
	w2vs map[word2vec.Config]*w2vEntry // full config -> trained model
	runs map[PipelineConfig]*runEntry  // normalized cfg -> results
}

type vecEntry struct {
	once sync.Once
	vec  *tfidf.Vectorizer
	err  error
}

type w2vEntry struct {
	once sync.Once
	m    *word2vec.Model
	err  error
}

type runEntry struct {
	once sync.Once
	res  []ValidationResult
	err  error
}

// NewValidator builds a Validator over bugs. The slice is retained and
// must not be mutated afterwards.
func NewValidator(bugs []LabeledBug) *Validator {
	return &Validator{
		bugs: bugs,
		vecs: map[int]*vecEntry{},
		w2vs: map[word2vec.Config]*w2vEntry{},
		runs: map[PipelineConfig]*runEntry{},
	}
}

func (v *Validator) tokenized() [][]string {
	v.docsOnce.Do(func() { v.docs = tokenizeAll(v.bugs) })
	return v.docs
}

func (v *Validator) labelIndices() (map[taxonomy.Dimension][]int, error) {
	v.labelsOnce.Do(func() {
		labels := make(map[taxonomy.Dimension][]int)
		for _, d := range taxonomy.Dimensions() {
			y := make([]int, len(v.bugs))
			for i, b := range v.bugs {
				idx, err := labelIndex(d, b.Label.Tag(d))
				if err != nil {
					v.labelsErr = fmt.Errorf("study: bug %s: %w", b.Issue.ID, err)
					return
				}
				y[i] = idx
			}
			labels[d] = y
		}
		v.labels = labels
	})
	return v.labels, v.labelsErr
}

// fittedVectorizer returns the TF-IDF vectorizer for maxVocab, fitting
// it on first use. Fitting does not depend on the seed, so every
// repeat and every seed shares one vocabulary.
func (v *Validator) fittedVectorizer(maxVocab int) (*tfidf.Vectorizer, error) {
	v.mu.Lock()
	e, ok := v.vecs[maxVocab]
	if !ok {
		e = &vecEntry{}
		v.vecs[maxVocab] = e
	}
	v.mu.Unlock()
	e.once.Do(func() {
		vec := &tfidf.Vectorizer{MaxVocab: maxVocab, MinDF: 2}
		if err := vec.Fit(v.tokenized()); err != nil {
			e.err = fmt.Errorf("study: fit tfidf: %w", err)
			return
		}
		e.vec = vec
	})
	return e.vec, e.err
}

// trainedW2V returns the Word2Vec model for wcfg, training it on first
// use. The key is the full config, so different seeds (different
// repeats) train distinct models while identical requests — e.g. the
// scaling ablation re-running the E09 protocol — share one.
func (v *Validator) trainedW2V(wcfg word2vec.Config) (*word2vec.Model, error) {
	v.mu.Lock()
	e, ok := v.w2vs[wcfg]
	if !ok {
		e = &w2vEntry{}
		v.w2vs[wcfg] = e
	}
	v.mu.Unlock()
	e.once.Do(func() {
		m, err := word2vec.Train(v.tokenized(), wcfg)
		if err != nil {
			e.err = fmt.Errorf("study: train word2vec: %w", err)
			return
		}
		e.m = m
	})
	return e.m, e.err
}

// features returns the feature blocks cfg selects (cfg carries its
// defaults), fitting each on first use.
func (v *Validator) features(cfg PipelineConfig) (*tfidf.Vectorizer, *word2vec.Model, error) {
	var vec *tfidf.Vectorizer
	var w2v *word2vec.Model
	var err error
	if !cfg.DisableTFIDF {
		if vec, err = v.fittedVectorizer(cfg.MaxVocab); err != nil {
			return nil, nil, err
		}
	}
	if !cfg.DisableW2V {
		wcfg := word2vec.Config{Dim: cfg.W2VDim, Epochs: cfg.W2VEpochs, Seed: cfg.Seed}
		if w2v, err = v.trainedW2V(wcfg); err != nil {
			return nil, nil, err
		}
	}
	if vec == nil && w2v == nil {
		return nil, nil, errors.New("study: pipeline needs at least one feature block")
	}
	return vec, w2v, nil
}

func (v *Validator) run(key PipelineConfig) *runEntry {
	v.mu.Lock()
	defer v.mu.Unlock()
	e, ok := v.runs[key]
	if !ok {
		e = &runEntry{}
		v.runs[key] = e
	}
	return e
}

// Validate reproduces the paper's §II-C protocol: split the manually
// labeled set 2/3 train, 1/3 test; compare SVM (with and without
// normalization), decision tree, AdaBoost, and PCA+SVM per dimension.
// The paper's result: normalized SVM best, ≈96 % on bug type, ≈86 % on
// symptoms, and no model predicts fixes well.
//
// The (dimension × model) grid trains on a bounded worker pool
// (cfg.Workers); every cell builds its own classifier, writes only its
// own slot, and the reduction walks dimensions and models in canonical
// order, so the result is identical for every worker count.
func (v *Validator) Validate(cfg PipelineConfig) ([]ValidationResult, error) {
	cfg = cfg.withDefaults()
	if len(v.bugs) < 12 {
		return nil, fmt.Errorf("study: need at least 12 labeled bugs, have %d", len(v.bugs))
	}
	key := cfg
	// Workers never changes results, so all settings share one entry.
	key.Workers = 0
	e := v.run(key)
	e.once.Do(func() { e.res, e.err = v.validate(cfg) })
	if e.err != nil {
		return nil, e.err
	}
	return cloneResults(e.res), nil
}

func (v *Validator) validate(cfg PipelineConfig) ([]ValidationResult, error) {
	docs := v.tokenized()
	labels, err := v.labelIndices()
	if err != nil {
		return nil, err
	}

	vec, w2v, err := v.features(cfg)
	if err != nil {
		return nil, err
	}
	xRaw, err := buildFeatures(vec, w2v, docs, false)
	if err != nil {
		return nil, err
	}
	// L2-normalized copy for the "with normalization" variants.
	xNorm := xRaw.Clone()
	for i := 0; i < xNorm.Rows(); i++ {
		mathx.Normalize(xNorm.Row(i))
	}

	dims := taxonomy.Dimensions()
	specs := modelSpecs(cfg)

	type dimSplit struct {
		train, test *ml.Dataset
		trN, teN    *ml.Dataset
	}
	splits := make([]dimSplit, len(dims))
	for di, d := range dims {
		dsRaw, err := ml.NewDataset(xRaw, labels[d])
		if err != nil {
			return nil, err
		}
		dsNorm, err := ml.NewDataset(xNorm, labels[d])
		if err != nil {
			return nil, err
		}
		// The same seed gives both variants the identical split.
		train, test, err := ml.TrainTestSplit(dsRaw, 2.0/3.0, cfg.Seed+int64(d))
		if err != nil {
			return nil, err
		}
		trN, teN, err := ml.TrainTestSplit(dsNorm, 2.0/3.0, cfg.Seed+int64(d))
		if err != nil {
			return nil, err
		}
		splits[di] = dimSplit{train, test, trN, teN}
	}

	// The grid: every (dimension, model) cell is independent — its own
	// classifier, its own output slot — so cells run concurrently and
	// the reduction below is order-fixed regardless of worker count.
	accs := make([][]float64, len(dims))
	for i := range accs {
		accs[i] = make([]float64, len(specs))
	}
	err = parallel.MapErr(cfg.Workers, len(dims)*len(specs), func(c int) error {
		di, mi := c/len(specs), c%len(specs)
		spec := specs[mi]
		trainSet, testSet := splits[di].train, splits[di].test
		if spec.normalized {
			trainSet, testSet = splits[di].trN, splits[di].teN
		}
		acc, err := ml.EvaluateSplit(spec.newClf(), trainSet, testSet)
		if err != nil {
			return fmt.Errorf("study: %v/%s: %w", dims[di], spec.name, err)
		}
		accs[di][mi] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}

	results := make([]ValidationResult, len(dims))
	for di, d := range dims {
		res := ValidationResult{Dimension: d, Accuracies: make(map[ModelName]float64, len(specs))}
		for mi, spec := range specs {
			acc := accs[di][mi]
			res.Accuracies[spec.name] = acc
			if res.Best == "" || acc > res.Accuracies[res.Best] {
				res.Best = spec.name
			}
		}
		results[di] = res
	}
	return results, nil
}

// ValidateRepeated runs Validate across `repeats` different splits and
// returns the per-dimension, per-model mean accuracies. The paper's
// single-split numbers (96 % type, 86 % symptom) sit inside the band
// this estimates more stably.
//
// Repeats fan out on the same bounded pool; each repeat's seed is
// derived from its index alone (cfg.Seed + r*101), and means are
// accumulated in repeat order per accumulator, so the output is
// bit-identical for every worker count.
func (v *Validator) ValidateRepeated(cfg PipelineConfig, repeats int) ([]ValidationResult, error) {
	if repeats < 1 {
		return nil, fmt.Errorf("study: repeats must be >= 1, got %d", repeats)
	}
	per := make([][]ValidationResult, repeats)
	err := parallel.MapErr(cfg.Workers, repeats, func(r int) error {
		runCfg := cfg
		runCfg.Seed = cfg.Seed + int64(r)*101
		res, err := v.Validate(runCfg)
		if err != nil {
			return err
		}
		per[r] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]ValidationResult, 0, len(taxonomy.Dimensions()))
	for di, d := range taxonomy.Dimensions() {
		res := ValidationResult{Dimension: d, Accuracies: map[ModelName]float64{}}
		for _, m := range modelOrder() {
			var s float64
			for r := 0; r < repeats; r++ {
				s += per[r][di].Accuracies[m]
			}
			res.Accuracies[m] = s / float64(repeats)
			if res.Best == "" || res.Accuracies[m] > res.Accuracies[res.Best] {
				res.Best = m
			}
		}
		out = append(out, res)
	}
	return out, nil
}

func cloneResults(in []ValidationResult) []ValidationResult {
	out := make([]ValidationResult, len(in))
	for i, r := range in {
		m := make(map[ModelName]float64, len(r.Accuracies))
		for k, a := range r.Accuracies {
			m[k] = a
		}
		out[i] = ValidationResult{Dimension: r.Dimension, Accuracies: m, Best: r.Best}
	}
	return out
}
