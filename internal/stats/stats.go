// Package stats provides the statistical primitives the study engine
// uses to reproduce the paper's figures: empirical CDFs (Figure 7 and
// Figure 12) with their quantiles, and association measures between
// categorical bug labels (phi coefficient and lift).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned for operations that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample (copied, then sorted).
func NewECDF(sample []float64) (*ECDF, error) {
	if len(sample) == 0 {
		return nil, ErrEmpty
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// At returns P(X <= x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	// First index with sorted[i] > x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the smallest sample value v with At(v) >= p.
// p is clamped to [0, 1].
func (e *ECDF) Quantile(p float64) float64 {
	if p <= 0 {
		return e.sorted[0]
	}
	if p >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return e.sorted[idx]
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Min returns the smallest sample value.
func (e *ECDF) Min() float64 { return e.sorted[0] }

// Max returns the largest sample value.
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// Points returns up to n evenly spaced (x, P(X<=x)) points suitable for
// plotting the CDF curve. The last point is always (max, 1).
func (e *ECDF) Points(n int) []Point {
	if n < 2 {
		n = 2
	}
	lo, hi := e.Min(), e.Max()
	out := make([]Point, 0, n)
	if lo == hi {
		return []Point{{X: lo, Y: 1}}
	}
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n-1; i++ {
		x := lo + float64(i)*step
		out = append(out, Point{X: x, Y: e.At(x)})
	}
	// lo + (n-1)*step can round below hi, where the CDF is below 1.
	return append(out, Point{X: hi, Y: 1})
}

// Point is a single (x, y) coordinate of a plotted series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// PhiCoefficient measures association between two binary indicators
// from their 2x2 contingency counts:
//
//	        b=1   b=0
//	a=1     n11   n10
//	a=0     n01   n00
//
// It returns a value in [-1, 1]; 0 when any marginal is empty.
func PhiCoefficient(n11, n10, n01, n00 int) float64 {
	r1 := float64(n11 + n10)
	r0 := float64(n01 + n00)
	c1 := float64(n11 + n01)
	c0 := float64(n10 + n00)
	den := math.Sqrt(r1 * r0 * c1 * c0)
	if den == 0 {
		return 0
	}
	return (float64(n11)*float64(n00) - float64(n10)*float64(n01)) / den
}

// Lift returns P(a ∧ b) / (P(a)·P(b)) over n observations, the classic
// association-rule lift. It returns 0 when either marginal is empty.
func Lift(n11, nA, nB, n int) float64 {
	if nA == 0 || nB == 0 || n == 0 {
		return 0
	}
	pAB := float64(n11) / float64(n)
	pA := float64(nA) / float64(n)
	pB := float64(nB) / float64(n)
	return pAB / (pA * pB)
}
