// Package svm implements a linear Support Vector Machine trained with
// the Pegasos primal sub-gradient algorithm (Shalev-Shwartz et al.),
// plus a one-vs-rest wrapper for multiclass problems. The paper found
// a normalized SVM the most accurate model for predicting bug types
// (≈96 %) and symptoms (≈86 %).
package svm

import (
	"errors"
	"fmt"
	"math/rand"

	"sdnbugs/internal/mathx"
	"sdnbugs/internal/ml"
)

// ErrBadLabels is returned when binary training labels are not ±1.
var ErrBadLabels = errors.New("svm: binary labels must be -1 or +1")

// Binary is a linear binary SVM. The zero value uses sensible defaults.
type Binary struct {
	// Lambda is the L2 regularization strength (default 1e-3).
	Lambda float64
	// Epochs is the number of passes over the data (default 20).
	Epochs int
	// Seed drives example sampling order.
	Seed int64
	// Balanced samples positives and negatives with equal probability,
	// countering class imbalance in one-vs-rest problems.
	Balanced bool

	w []float64
	b float64
}

// FitBinary trains on labels in {-1, +1}.
func (s *Binary) FitBinary(x *mathx.Matrix, y []int) error {
	if x.Rows() == 0 {
		return ml.ErrEmptyDataset
	}
	if x.Rows() != len(y) {
		return fmt.Errorf("%w: %d rows vs %d labels", ml.ErrLengthMatch, x.Rows(), len(y))
	}
	for _, v := range y {
		if v != -1 && v != 1 {
			return fmt.Errorf("%w: got %d", ErrBadLabels, v)
		}
	}
	lambda := s.Lambda
	if lambda <= 0 {
		lambda = 1e-3
	}
	epochs := s.Epochs
	if epochs <= 0 {
		epochs = 20
	}
	n, d := x.Rows(), x.Cols()
	s.w = make([]float64, d)
	s.b = 0
	rng := rand.New(rand.NewSource(s.Seed))
	var pos, neg []int
	if s.Balanced {
		for i, v := range y {
			if v == 1 {
				pos = append(pos, i)
			} else {
				neg = append(neg, i)
			}
		}
		if len(pos) == 0 || len(neg) == 0 {
			// Degenerate one-class problem: fall back to uniform.
			pos, neg = nil, nil
		}
	}
	// Suffix-averaged Pegasos: the returned model is the average of
	// the SGD iterates over the second half of training, which
	// generalizes markedly better than the final iterate on small,
	// noisy text datasets while ignoring the unstable early steps.
	steps := epochs * n
	avgFrom := steps / 2
	avgW := make([]float64, d)
	var avgB float64
	var avgN int
	t := 0
	for e := 0; e < epochs; e++ {
		for range n {
			t++
			var i int
			if pos != nil {
				if rng.Intn(2) == 0 {
					i = pos[rng.Intn(len(pos))]
				} else {
					i = neg[rng.Intn(len(neg))]
				}
			} else {
				i = rng.Intn(n)
			}
			eta := 1 / (lambda * float64(t))
			xi := x.Row(i)
			yi := float64(y[i])
			margin := yi * (mathx.Dot(s.w, xi) + s.b)
			// w <- (1 - eta*lambda) w  [+ eta*yi*xi if margin < 1]
			hinge := margin < 1
			if hinge {
				s.b += eta * yi
			}
			avg := t > avgFrom
			var inv float64
			if avg {
				avgN++
				inv = 1 / float64(avgN)
				avgB += (s.b - avgB) * inv
			}
			pegasosStep(s.w, avgW, xi, 1-eta*lambda, eta*yi, inv, hinge, avg)
		}
	}
	if avgN > 0 {
		s.w = avgW
		s.b = avgB
	}
	return nil
}

// pegasosStep updates w in one pass: w[j] = w[j]*c, plus a*xi[j] when
// hinge is set, then, when avg is set, moves avgW[j] toward the new
// w[j] by inv. Per element it computes the same expressions in the
// same order as a Scale, an Axpy and a running-average loop run one
// after another, so every bit matches; the float64 conversions stop
// any compiler from fusing a product and a sum into one rounding.
func pegasosStep(w, avgW, xi []float64, c, a, inv float64, hinge, avg bool) {
	avgW = avgW[:len(w)]
	xi = xi[:len(w)]
	switch {
	case hinge && avg:
		for j := range w {
			wj := float64(w[j]*c) + float64(a*xi[j])
			w[j] = wj
			avgW[j] += float64((wj - avgW[j]) * inv)
		}
	case hinge:
		for j := range w {
			w[j] = float64(w[j]*c) + float64(a*xi[j])
		}
	case avg:
		for j := range w {
			wj := float64(w[j] * c)
			w[j] = wj
			avgW[j] += float64((wj - avgW[j]) * inv)
		}
	default:
		for j := range w {
			w[j] *= c
		}
	}
}

// Decision returns the signed margin w·x + b.
func (s *Binary) Decision(features []float64) (float64, error) {
	if s.w == nil {
		return 0, ml.ErrNotFitted
	}
	if len(features) != len(s.w) {
		return 0, fmt.Errorf("svm: expected %d features, got %d", len(s.w), len(features))
	}
	return mathx.Dot(s.w, features) + s.b, nil
}

// PredictBinary returns -1 or +1.
func (s *Binary) PredictBinary(features []float64) (int, error) {
	d, err := s.Decision(features)
	if err != nil {
		return 0, err
	}
	if d >= 0 {
		return 1, nil
	}
	return -1, nil
}

// HingeLoss returns the regularized empirical hinge loss on (x, y),
// useful for asserting training progress.
func (s *Binary) HingeLoss(x *mathx.Matrix, y []int) (float64, error) {
	if s.w == nil {
		return 0, ml.ErrNotFitted
	}
	var loss float64
	for i := 0; i < x.Rows(); i++ {
		d, err := s.Decision(x.Row(i))
		if err != nil {
			return 0, err
		}
		m := 1 - float64(y[i])*d
		if m > 0 {
			loss += m
		}
	}
	loss /= float64(x.Rows())
	lambda := s.Lambda
	if lambda <= 0 {
		lambda = 1e-3
	}
	return loss + lambda/2*mathx.Dot(s.w, s.w), nil
}

// Multiclass is a one-vs-rest ensemble of Binary SVMs implementing
// ml.Classifier for dense 0-based labels.
type Multiclass struct {
	// Lambda, Epochs, Seed, Balanced configure every underlying
	// binary model.
	Lambda   float64
	Epochs   int
	Seed     int64
	Balanced bool

	models []*Binary
}

var _ ml.Classifier = (*Multiclass)(nil)

// Fit trains one binary SVM per class.
func (m *Multiclass) Fit(x *mathx.Matrix, y []int) error {
	if x.Rows() == 0 {
		return ml.ErrEmptyDataset
	}
	if x.Rows() != len(y) {
		return fmt.Errorf("%w: %d rows vs %d labels", ml.ErrLengthMatch, x.Rows(), len(y))
	}
	k := 0
	for _, v := range y {
		if v < 0 {
			return fmt.Errorf("svm: labels must be >= 0, got %d", v)
		}
		if v+1 > k {
			k = v + 1
		}
	}
	m.models = make([]*Binary, k)
	bin := make([]int, len(y))
	for c := 0; c < k; c++ {
		for i, v := range y {
			if v == c {
				bin[i] = 1
			} else {
				bin[i] = -1
			}
		}
		mdl := &Binary{Lambda: m.Lambda, Epochs: m.Epochs, Seed: m.Seed + int64(c), Balanced: m.Balanced}
		if err := mdl.FitBinary(x, bin); err != nil {
			return fmt.Errorf("svm: class %d: %w", c, err)
		}
		m.models[c] = mdl
	}
	return nil
}

// Predict returns the class whose binary model has the largest margin.
func (m *Multiclass) Predict(features []float64) (int, error) {
	if m.models == nil {
		return 0, ml.ErrNotFitted
	}
	best, bestScore := 0, 0.0
	for c, mdl := range m.models {
		d, err := mdl.Decision(features)
		if err != nil {
			return 0, err
		}
		if c == 0 || d > bestScore {
			best, bestScore = c, d
		}
	}
	return best, nil
}
