// Package adaboost implements AdaBoost (SAMME multiclass variant) over
// depth-1 decision stumps — the boosting baseline the paper compares
// against SVM and decision trees (§II-C).
//
// Only the row weights change between boosting rounds, so Fit sorts
// each feature column once and every round sweeps those orders. The
// order comes from sort.Slice over the rows in index order with the
// less function v[a] < v[b]. Go's pdqsort permutes by the length and
// the comparison results alone, so the order of tied values is fixed
// too, and it is part of the model: it sets the float summation order
// of the per-class weights on each side of a split, and so which stump
// wins a near-tie. A stable sort, or any other algorithm, would reorder
// ties and can change the fitted ensemble.
package adaboost

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"sdnbugs/internal/mathx"
	"sdnbugs/internal/ml"
)

// Ensemble is an AdaBoost classifier. The zero value uses defaults.
type Ensemble struct {
	// Rounds is the number of boosting rounds (default 50).
	Rounds int

	stumps []stump
	alphas []float64
	k      int
}

var _ ml.Classifier = (*Ensemble)(nil)

type stump struct {
	feature   int
	threshold float64
	// classLeft/classRight are the predicted classes on each side.
	classLeft, classRight int
}

func (s stump) predict(features []float64) int {
	if features[s.feature] <= s.threshold {
		return s.classLeft
	}
	return s.classRight
}

// Fit boosts weighted stumps on rows of x with dense 0-based labels.
func (e *Ensemble) Fit(x *mathx.Matrix, y []int) error {
	n, d := x.Rows(), x.Cols()
	if n == 0 {
		return ml.ErrEmptyDataset
	}
	if n != len(y) {
		return fmt.Errorf("%w: %d rows vs %d labels", ml.ErrLengthMatch, n, len(y))
	}
	if d == 0 {
		return fmt.Errorf("%w: %d rows have no features", ml.ErrEmptyDataset, n)
	}
	e.k = 0
	for _, v := range y {
		if v < 0 {
			return fmt.Errorf("adaboost: labels must be >= 0, got %d", v)
		}
		if v+1 > e.k {
			e.k = v + 1
		}
	}
	rounds := e.Rounds
	if rounds <= 0 {
		rounds = 50
	}
	e.stumps = slices.Grow(e.stumps[:0], rounds)
	e.alphas = slices.Grow(e.alphas[:0], rounds)

	// constant predicts the majority class whatever the features; it
	// stands in when no feature can be split.
	maj := majority(y, e.k)
	constant := stump{feature: 0, threshold: math.Inf(1), classLeft: maj, classRight: maj}
	cols := presort(x, y)
	buf := make([]float64, n+2*e.k)
	w, leftW, rightW := buf[:n], buf[n:n+e.k], buf[n+e.k:]
	miss := make([]bool, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	// SAMME requires error < 1 - 1/K to make progress.
	limit := 1 - 1/float64(e.k)
	for r := 0; r < rounds; r++ {
		st, ok := bestStump(cols, n, w, leftW, rightW)
		if !ok {
			st = constant
		}
		var werr float64
		for i := 0; i < n; i++ {
			miss[i] = st.predict(x.Row(i)) != y[i]
			if miss[i] {
				werr += w[i]
			}
		}
		if werr >= limit {
			break
		}
		if werr < 1e-12 {
			// Perfect stump: give it a large but finite weight and stop.
			e.stumps = append(e.stumps, st)
			e.alphas = append(e.alphas, 10)
			break
		}
		alpha := math.Log((1-werr)/werr) + math.Log(float64(e.k)-1)
		e.stumps = append(e.stumps, st)
		e.alphas = append(e.alphas, alpha)
		// Reweight and renormalize.
		boost := math.Exp(alpha)
		var z float64
		for i := range w {
			if miss[i] {
				w[i] *= boost
			}
			z += w[i]
		}
		for i := range w {
			w[i] /= z
		}
	}
	if len(e.stumps) == 0 {
		// Degenerate data (e.g. single class): fall back to majority.
		e.stumps = append(e.stumps, constant)
		e.alphas = append(e.alphas, 1)
	}
	return nil
}

func majority(y []int, k int) int {
	counts := make([]int, k)
	for _, v := range y {
		counts[v]++
	}
	best := 0
	for c, v := range counts {
		if v > counts[best] {
			best = c
		}
	}
	return best
}

// sortedVal is one row's value of one feature. int32 keeps it at 16
// bytes; a row or label index past 2^31 would need far more memory
// than the weight buffers could get.
type sortedVal struct {
	v   float64
	row int32
	y   int32
}

// presort returns each feature's column of x in ascending order of
// value, column f at [f*n, (f+1)*n). The sort call is part of the
// model: see the package doc.
func presort(x *mathx.Matrix, y []int) []sortedVal {
	n, d := x.Rows(), x.Cols()
	cols := make([]sortedVal, n*d)
	for i := 0; i < n; i++ {
		for f, v := range x.Row(i) {
			cols[f*n+i] = sortedVal{v, int32(i), int32(y[i])}
		}
	}
	for f := 0; f < d; f++ {
		col := cols[f*n : (f+1)*n]
		sort.Slice(col, func(a, b int) bool { return col[a].v < col[b].v })
	}
	return cols
}

// bestStump finds the stump with the least weighted error under
// weights w, sweeping each presorted column of cols (see presort) in
// order. leftW and rightW are k-long scratch. It reports false when
// no feature has two distinct values.
func bestStump(cols []sortedVal, n int, w, leftW, rightW []float64) (stump, bool) {
	bestErr := math.Inf(1)
	var best stump
	for f := 0; f*n < len(cols); f++ {
		col := cols[f*n : (f+1)*n]
		clear(leftW)
		clear(rightW)
		for _, s := range col {
			rightW[s.y] += w[s.row]
		}
		for i := 0; i < n-1; i++ {
			s := col[i]
			leftW[s.y] += w[s.row]
			rightW[s.y] -= w[s.row]
			if s.v == col[i+1].v {
				continue
			}
			lc, lw := argmaxWeight(leftW)
			rc, rw := argmaxWeight(rightW)
			// Weighted error = total weight - correctly classified weight.
			var total float64
			for c := range leftW {
				total += leftW[c] + rightW[c]
			}
			errW := total - lw - rw
			if errW < bestErr {
				bestErr = errW
				best = stump{
					feature:   f,
					threshold: (s.v + col[i+1].v) / 2,
					classLeft: lc, classRight: rc,
				}
			}
		}
	}
	return best, !math.IsInf(bestErr, 1)
}

func argmaxWeight(w []float64) (int, float64) {
	best := 0
	for c := 1; c < len(w); c++ {
		if w[c] > w[best] {
			best = c
		}
	}
	return best, w[best]
}

// Predict returns the alpha-weighted vote over stumps.
func (e *Ensemble) Predict(features []float64) (int, error) {
	if len(e.stumps) == 0 {
		return 0, ml.ErrNotFitted
	}
	votes := make([]float64, e.k)
	for i, st := range e.stumps {
		if st.feature >= len(features) {
			return 0, fmt.Errorf("adaboost: feature %d out of range (%d features)", st.feature, len(features))
		}
		votes[st.predict(features)] += e.alphas[i]
	}
	return mathx.ArgMax(votes), nil
}

// Size returns the number of boosted stumps.
func (e *Ensemble) Size() int { return len(e.stumps) }
