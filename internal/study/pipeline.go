package study

import (
	"errors"
	"fmt"

	"sdnbugs/internal/mathx"
	"sdnbugs/internal/ml"
	"sdnbugs/internal/ml/svm"
	"sdnbugs/internal/nlp"
	"sdnbugs/internal/nlp/tfidf"
	"sdnbugs/internal/nlp/word2vec"
	"sdnbugs/internal/parallel"
	"sdnbugs/internal/taxonomy"
	"sdnbugs/internal/tracker"
)

// PipelineConfig controls the NLP auto-classification pipeline (§II-C).
type PipelineConfig struct {
	// Seed drives every random component.
	Seed int64
	// MaxVocab caps the TF-IDF vocabulary (default 400).
	MaxVocab int
	// W2VDim is the Word2Vec embedding size (default 40).
	W2VDim int
	// W2VEpochs is the Word2Vec training epochs (default 5).
	W2VEpochs int
	// UseTFIDF / UseW2V select the feature blocks; both default on
	// (the paper concatenates keyword features with embeddings).
	// DisableTFIDF / DisableW2V turn one off for ablations.
	DisableTFIDF bool
	DisableW2V   bool
	// DisableScaling turns off feature normalization (the paper found
	// "SVM with normalization" best — this is the ablation knob).
	DisableScaling bool
	// Workers bounds the worker pool the pipeline and validation use
	// for independent work (per-dimension classifier training, batch
	// prediction, the repeat×dimension×model validation grid);
	// 0 means GOMAXPROCS, 1 runs serially. Workers never changes any
	// numeric result — parallel stages write disjoint slots and are
	// reduced in deterministic index order — so the same seed yields
	// byte-identical output at every setting.
	Workers int
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.MaxVocab <= 0 {
		c.MaxVocab = 400
	}
	if c.W2VDim <= 0 {
		c.W2VDim = 40
	}
	if c.W2VEpochs <= 0 {
		c.W2VEpochs = 5
	}
	return c
}

// ErrPipelineNotFitted is returned by Predict before Fit.
var ErrPipelineNotFitted = errors.New("study: pipeline not fitted")

// Pipeline maps bug-report text to predicted taxonomy labels: TF-IDF
// and Word2Vec features feeding one multiclass SVM per dimension, plus
// a refinement model for external-call kinds (needed for Figure 13).
type Pipeline struct {
	cfg PipelineConfig

	vec  *tfidf.Vectorizer
	w2v  *word2vec.Model
	clfs map[taxonomy.Dimension]ml.Classifier

	extClf ml.Classifier
}

// NewPipeline builds an unfitted pipeline.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	return &Pipeline{
		cfg:  cfg.withDefaults(),
		clfs: make(map[taxonomy.Dimension]ml.Classifier),
	}
}

// featurize builds the feature matrix for the given token lists.
// "Normalization" in the paper's sense is unit-L2 feature vectors, the
// standard conditioning for linear SVMs on text features.
func (p *Pipeline) featurize(docs [][]string) (*mathx.Matrix, error) {
	if p.vec == nil && p.w2v == nil {
		return nil, ErrPipelineNotFitted
	}
	return buildFeatures(p.vec, p.w2v, docs, !p.cfg.DisableScaling)
}

// tokenizeAll preprocesses every bug's text.
func tokenizeAll(bugs []LabeledBug) [][]string {
	docs := make([][]string, len(bugs))
	for i, b := range bugs {
		docs[i] = nlp.Preprocess(b.Issue.Text())
	}
	return docs
}

// labelIndex maps a tag to its dense class id within dimension d.
func labelIndex(d taxonomy.Dimension, tag string) (int, error) {
	for i, c := range d.Categories() {
		if c == tag {
			return i, nil
		}
	}
	return 0, fmt.Errorf("study: tag %q not in dimension %v", tag, d)
}

// Fit learns features on all texts and trains one classifier per
// taxonomy dimension from the bugs' labels.
func (p *Pipeline) Fit(bugs []LabeledBug) error {
	if len(bugs) == 0 {
		return ErrNoBugs
	}
	docs := tokenizeAll(bugs)
	if err := p.fitFeatures(docs); err != nil {
		return err
	}
	x, err := p.featurize(docs)
	if err != nil {
		return err
	}
	// Per-dimension classifiers are independent (each seeds its own
	// RNG from Seed+dimension), so they train on the worker pool; each
	// writes only its own slot and the error, if any, is the one the
	// sequential loop would have hit first.
	dims := taxonomy.Dimensions()
	clfs := make([]ml.Classifier, len(dims))
	err = parallel.MapErr(p.cfg.Workers, len(dims), func(di int) error {
		d := dims[di]
		y := make([]int, len(bugs))
		for i, b := range bugs {
			idx, err := labelIndex(d, b.Label.Tag(d))
			if err != nil {
				return fmt.Errorf("study: bug %s: %w", b.Issue.ID, err)
			}
			y[i] = idx
		}
		clf := &svm.Multiclass{Epochs: 80, Lambda: 1e-4, Balanced: true, Seed: p.cfg.Seed + int64(d)}
		if err := clf.Fit(x, y); err != nil {
			return fmt.Errorf("study: fit %v classifier: %w", d, err)
		}
		clfs[di] = clf
		return nil
	})
	if err != nil {
		return err
	}
	for di, d := range dims {
		p.clfs[d] = clfs[di]
	}
	return p.fitExternalKind(bugs, docs, x)
}

func (p *Pipeline) fitFeatures(docs [][]string) error {
	if !p.cfg.DisableTFIDF {
		p.vec = &tfidf.Vectorizer{MaxVocab: p.cfg.MaxVocab, MinDF: 2}
		if err := p.vec.Fit(docs); err != nil {
			return fmt.Errorf("study: fit tfidf: %w", err)
		}
	}
	if !p.cfg.DisableW2V {
		m, err := word2vec.Train(docs, word2vec.Config{
			Dim:    p.cfg.W2VDim,
			Epochs: p.cfg.W2VEpochs,
			Seed:   p.cfg.Seed,
		})
		if err != nil {
			return fmt.Errorf("study: train word2vec: %w", err)
		}
		p.w2v = m
	}
	if p.vec == nil && p.w2v == nil {
		return errors.New("study: pipeline needs at least one feature block")
	}
	return nil
}

// fitExternalKind trains the refinement model distinguishing system /
// third-party / application calls among external-call bugs.
func (p *Pipeline) fitExternalKind(bugs []LabeledBug, docs [][]string, x *mathx.Matrix) error {
	var rows []int
	var y []int
	for i, b := range bugs {
		if b.Label.Trigger != taxonomy.TriggerExternalCall {
			continue
		}
		rows = append(rows, i)
		y = append(y, int(b.Label.ExternalKind)-1)
	}
	if len(rows) < 10 {
		// Too few external-call bugs: fall back to the majority kind.
		p.extClf = nil
		return nil
	}
	sub := mathx.NewMatrix(len(rows), x.Cols())
	for k, i := range rows {
		copy(sub.Row(k), x.Row(i))
	}
	clf := &svm.Multiclass{Epochs: 80, Lambda: 1e-4, Balanced: true, Seed: p.cfg.Seed + 97}
	if err := clf.Fit(sub, y); err != nil {
		return fmt.Errorf("study: fit external-kind classifier: %w", err)
	}
	p.extClf = clf
	return nil
}

// Predict classifies one issue's text into a full (validated) label.
// Refinement tags the pipeline does not model are filled with the most
// common category so the label always passes taxonomy validation.
func (p *Pipeline) Predict(issue tracker.Issue) (taxonomy.Label, error) {
	if len(p.clfs) == 0 {
		return taxonomy.Label{}, ErrPipelineNotFitted
	}
	doc := nlp.Preprocess(issue.Text())
	x, err := p.featurize([][]string{doc})
	if err != nil {
		return taxonomy.Label{}, err
	}
	feat := x.Row(0)

	var label taxonomy.Label
	for _, d := range taxonomy.Dimensions() {
		cls, err := p.clfs[d].Predict(feat)
		if err != nil {
			return taxonomy.Label{}, fmt.Errorf("study: predict %v: %w", d, err)
		}
		cats := d.Categories()
		if cls < 0 || cls >= len(cats) {
			return taxonomy.Label{}, fmt.Errorf("study: predicted class %d out of range for %v", cls, d)
		}
		if err := label.SetTag(d, cats[cls]); err != nil {
			return taxonomy.Label{}, err
		}
	}

	// Fill refinements so the label validates.
	switch label.Trigger {
	case taxonomy.TriggerExternalCall:
		label.ExternalKind = taxonomy.ThirdPartyCall
		if p.extClf != nil {
			cls, err := p.extClf.Predict(feat)
			if err != nil {
				return taxonomy.Label{}, fmt.Errorf("study: predict external kind: %w", err)
			}
			kinds := taxonomy.ExternalCallKinds()
			if cls >= 0 && cls < len(kinds) {
				label.ExternalKind = kinds[cls]
			}
		}
	case taxonomy.TriggerConfiguration:
		label.ConfigScope = taxonomy.ConfigController
	}
	if label.Symptom == taxonomy.SymptomByzantine {
		label.Byzantine = taxonomy.GrayFailure
	}
	if err := label.Validate(); err != nil {
		return taxonomy.Label{}, fmt.Errorf("study: predicted label invalid: %w", err)
	}
	return label, nil
}

// PredictAll classifies a batch of issues. Predictions are independent
// (the fitted pipeline is read-only), so they run on the worker pool;
// each writes its own slot, and on failure the lowest-index error —
// the one the sequential loop would have returned — wins.
func (p *Pipeline) PredictAll(issues []tracker.Issue) ([]taxonomy.Label, error) {
	out := make([]taxonomy.Label, len(issues))
	err := parallel.MapErr(p.cfg.Workers, len(issues), func(i int) error {
		l, err := p.Predict(issues[i])
		if err != nil {
			return fmt.Errorf("study: predict %s: %w", issues[i].ID, err)
		}
		out[i] = l
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
