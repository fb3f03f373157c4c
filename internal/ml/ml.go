// Package ml provides the classic machine-learning scaffolding the
// paper's validation uses (§II-C): datasets, the 2/3–1/3 train/test
// protocol, and the accuracy metric used to compare SVM, decision
// trees, PCA-reduced models, and AdaBoost.
package ml

import (
	"errors"
	"fmt"
	"math/rand"

	"sdnbugs/internal/mathx"
)

// Errors returned by the scaffolding.
var (
	ErrEmptyDataset = errors.New("ml: empty dataset")
	ErrLengthMatch  = errors.New("ml: features and labels differ in length")
	ErrNotFitted    = errors.New("ml: model not fitted")
)

// Classifier is the interface every model in the subpackages satisfies.
type Classifier interface {
	// Fit trains on rows of x with integer class labels y.
	Fit(x *mathx.Matrix, y []int) error
	// Predict returns the class for a single feature vector.
	Predict(features []float64) (int, error)
}

// Dataset pairs a feature matrix with integer labels.
type Dataset struct {
	X *mathx.Matrix
	Y []int
}

// NewDataset validates and wraps features and labels.
func NewDataset(x *mathx.Matrix, y []int) (*Dataset, error) {
	if x == nil || x.Rows() == 0 {
		return nil, ErrEmptyDataset
	}
	if x.Rows() != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d labels", ErrLengthMatch, x.Rows(), len(y))
	}
	return &Dataset{X: x, Y: y}, nil
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return d.X.Rows() }

// Subset returns a new dataset containing the given row indices
// (data copied).
func (d *Dataset) Subset(idx []int) (*Dataset, error) {
	if len(idx) == 0 {
		return nil, ErrEmptyDataset
	}
	x := mathx.NewMatrix(len(idx), d.X.Cols())
	y := make([]int, len(idx))
	for i, j := range idx {
		if j < 0 || j >= d.Len() {
			return nil, fmt.Errorf("ml: subset index %d out of range [0,%d)", j, d.Len())
		}
		copy(x.Row(i), d.X.Row(j))
		y[i] = d.Y[j]
	}
	return &Dataset{X: x, Y: y}, nil
}

// TrainTestSplit shuffles with the seeded RNG and splits so that
// trainFrac of the data trains the model — the paper uses 2/3.
func TrainTestSplit(d *Dataset, trainFrac float64, seed int64) (train, test *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("ml: trainFrac %v outside (0,1)", trainFrac)
	}
	n := d.Len()
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	cut := int(float64(n) * trainFrac)
	if cut < 1 || cut >= n {
		return nil, nil, fmt.Errorf("ml: split leaves an empty side (n=%d, frac=%v)", n, trainFrac)
	}
	train, err = d.Subset(idx[:cut])
	if err != nil {
		return nil, nil, err
	}
	test, err = d.Subset(idx[cut:])
	if err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// Accuracy returns the fraction of matching labels.
func Accuracy(pred, truth []int) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMatch, len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, ErrEmptyDataset
	}
	hits := 0
	for i := range pred {
		if pred[i] == truth[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(pred)), nil
}

// EvaluateSplit trains clf on train and returns its accuracy on test.
func EvaluateSplit(clf Classifier, train, test *Dataset) (float64, error) {
	if err := clf.Fit(train.X, train.Y); err != nil {
		return 0, fmt.Errorf("ml: fit: %w", err)
	}
	pred := make([]int, test.Len())
	for i := 0; i < test.Len(); i++ {
		p, err := clf.Predict(test.X.Row(i))
		if err != nil {
			return 0, fmt.Errorf("ml: predict row %d: %w", i, err)
		}
		pred[i] = p
	}
	return Accuracy(pred, test.Y)
}
