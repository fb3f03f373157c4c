// Package mathx provides the small dense linear-algebra kernel that the
// NLP and machine-learning packages build on. It is deliberately minimal:
// dense vectors and matrices backed by []float64, with the handful of
// operations (dot products, norms, axpy, matrix multiply) that TF-IDF,
// NMF, Word2Vec, PCA, and the classifiers need.
//
// All operations are deterministic and allocate only when documented.
// Dot and Matrix.MulVecInto return the same bits on every platform:
// every product is rounded to float64 before it is added (the
// float64 conversions block fused multiply-add), and the four-lane
// accumulation order is fixed.
package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when operands have incompatible shapes.
var ErrDimensionMismatch = errors.New("mathx: dimension mismatch")

// Dot returns the inner product of a and b.
// It panics if the lengths differ.
//
// The sum is accumulated in four fixed lanes combined in a fixed
// order, which breaks the floating-point add latency chain that
// otherwise bounds throughput. The lane layout is part of the
// function's contract: every call with the same inputs returns the
// same bits, on every platform and at every call site. Each product is
// converted to float64 before it is added, so no compiler fuses a
// lane update into one multiply-add with a single rounding. A NaN
// result is NaN everywhere, but which operand's NaN payload
// propagates is left to the hardware and is not part of the contract.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	var s float64
	for ; i < len(a); i++ {
		s += float64(a[i] * b[i])
	}
	return ((s0 + s1) + (s2 + s3)) + s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// Scale multiplies every element of v by c in place and returns v.
func Scale(v []float64, c float64) []float64 {
	for i := range v {
		v[i] *= c
	}
	return v
}

// Axpy computes y += a*x in place. It panics on length mismatch.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// SubInto computes dst = a-b in place (dst may alias a or b) and
// returns dst. It panics on length mismatch. This is the
// allocation-free form of Sub for hot loops.
func SubInto(dst, a, b []float64) []float64 {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("mathx: SubInto length mismatch %d/%d/%d", len(dst), len(a), len(b)))
	}
	for i := range a {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// Sub returns a new vector a-b. It panics on length mismatch.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: Sub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Normalize scales v in place to unit Euclidean length and returns v.
// A zero vector is returned unchanged.
func Normalize(v []float64) []float64 {
	n := Norm2(v)
	if n == 0 {
		return v
	}
	return Scale(v, 1/n)
}

// CosineSimilarity returns the cosine of the angle between a and b,
// or 0 when either vector is zero.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to c.
func Fill(v []float64, c float64) {
	for i := range v {
		v[i] = c
	}
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v, or 0 when len(v) < 2.
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// StdDev returns the population standard deviation of v.
func StdDev(v []float64) float64 {
	return math.Sqrt(Variance(v))
}

// ArgMax returns the index of the largest element of v, or -1 for an
// empty slice. Ties resolve to the lowest index.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// AllFinite reports whether every element of v is finite (no NaN/Inf).
func AllFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
