package perfuzz

// Failure-inducing schedule learner: the corpus of (genome →
// degraded?) pairs the fuzzer accumulates trains a decision tree that
// predicts whether an unseen schedule will degrade the controller.
// The paper's bug-study pipeline classifies bug reports post hoc; the
// learned failure model turns the same scaffolding predictive —
// schedules can be triaged before they are ever replayed. The model
// must beat both the majority-class baseline and the closed-form
// accuracy of random guessing at the test base rate, otherwise the
// fuzzer's corpus carries no learnable signal and the run is flagged.

import (
	"errors"

	"sdnbugs/internal/mathx"
	"sdnbugs/internal/ml"
	"sdnbugs/internal/ml/dtree"
)

// ErrTinyCorpus reports a corpus too small to split into train/test.
var ErrTinyCorpus = errors.New("perfuzz: corpus too small to learn from")

// numFeatures is the width of the Featurize vector.
const numFeatures = int(numOps) + 4

// Featurize maps a schedule onto a fixed-width feature vector:
// length, total idle gap, per-op counts, the longest consecutive run
// of traffic ops (the queue-amplification signature), and the traffic
// fraction.
func Featurize(g Genome) []float64 {
	f := make([]float64, numFeatures)
	f[0] = float64(len(g))
	run, bestRun, traffic := 0, 0, 0
	for _, gene := range g {
		f[1] += float64(gene.Gap)
		if int(gene.Op) < int(numOps) {
			f[2+int(gene.Op)]++
		}
		switch gene.Op {
		case OpUnicast, OpBroadcast, OpMirrorBroadcast:
			traffic++
			run++
			if run > bestRun {
				bestRun = run
			}
		default:
			run = 0
		}
	}
	f[2+int(numOps)] = float64(bestRun)
	if len(g) > 0 {
		f[3+int(numOps)] = float64(traffic) / float64(len(g))
	}
	return f
}

// LearnerReport summarizes the failure-model evaluation on the
// held-out third of the corpus.
type LearnerReport struct {
	CorpusSize int `json:"corpus_size"`
	TrainSize  int `json:"train_size"`
	TestSize   int `json:"test_size"`
	// Accuracy is the decision tree's held-out accuracy.
	Accuracy float64 `json:"accuracy"`
	// MajorityAccuracy always predicts the test set's majority label.
	MajorityAccuracy float64 `json:"majority_accuracy"`
	// RandomGuessAccuracy is the expected accuracy of guessing labels
	// at the test base rate p: p^2 + (1-p)^2.
	RandomGuessAccuracy float64 `json:"random_guess_accuracy"`
	// Beats reports whether the model beats both baselines.
	Beats bool `json:"beats_baselines"`
}

// FailureModel is a failure-inducing predictor trained on the whole
// corpus (no held-out split — held-out scoring is Learn's job). The
// repair loop uses it to rank candidate patches: project each patch
// onto the shed's reproducer schedule, predict whether the projected
// schedule still degrades, and validate the likely-healthy candidates
// first, so the expensive full-campaign validations are spent where
// the model expects success.
type FailureModel struct {
	tree *dtree.Tree
}

// featurizeCorpus lays the corpus out as a feature matrix and
// degraded (1) / healthy (0) labels.
func featurizeCorpus(corpus []Record) (*mathx.Matrix, []int) {
	x := mathx.NewMatrix(len(corpus), numFeatures)
	y := make([]int, len(corpus))
	for i, r := range corpus {
		copy(x.Row(i), Featurize(r.Genome))
		if r.Eval.Degraded() {
			y[i] = 1
		}
	}
	return x, y
}

// TrainFailureModel fits a decision tree on the full corpus.
func TrainFailureModel(corpus []Record) (*FailureModel, error) {
	if len(corpus) < 2 {
		return nil, ErrTinyCorpus
	}
	x, y := featurizeCorpus(corpus)
	t := &dtree.Tree{MaxDepth: 8, MinLeaf: 1}
	if err := t.Fit(x, y); err != nil {
		return nil, err
	}
	return &FailureModel{tree: t}, nil
}

// PredictDegraded reports whether the model expects the schedule to
// degrade the controller.
func (m *FailureModel) PredictDegraded(g Genome) bool {
	if m == nil || m.tree == nil {
		return false
	}
	cls, err := m.tree.Predict(Featurize(g))
	return err == nil && cls == 1
}

// Learn featurizes the corpus, trains a depth-bounded decision tree
// on 2/3 of it (the paper's split protocol), and scores it on the
// held-out third against the majority and random-guess baselines.
func Learn(corpus []Record, seed int64) (LearnerReport, error) {
	if len(corpus) < 6 {
		return LearnerReport{}, ErrTinyCorpus
	}
	x, y := featurizeCorpus(corpus)
	d, err := ml.NewDataset(x, y)
	if err != nil {
		return LearnerReport{}, err
	}
	train, test, err := ml.TrainTestSplit(d, 2.0/3, seed)
	if err != nil {
		return LearnerReport{}, err
	}
	acc, err := ml.EvaluateSplit(&dtree.Tree{MaxDepth: 8, MinLeaf: 1}, train, test)
	if err != nil {
		return LearnerReport{}, err
	}

	pos := 0
	for _, v := range test.Y {
		pos += v
	}
	p := float64(pos) / float64(test.Len())
	majority := p
	if 1-p > majority {
		majority = 1 - p
	}
	rep := LearnerReport{
		CorpusSize:          len(corpus),
		TrainSize:           train.Len(),
		TestSize:            test.Len(),
		Accuracy:            acc,
		MajorityAccuracy:    majority,
		RandomGuessAccuracy: p*p + (1-p)*(1-p),
		Beats:               acc > majority && acc > p*p+(1-p)*(1-p),
	}
	return rep, nil
}
