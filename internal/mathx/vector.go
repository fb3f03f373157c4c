// Package mathx provides the small dense linear-algebra kernel that the
// NLP and machine-learning packages build on. It is deliberately minimal:
// dense vectors and matrices backed by []float64, with the handful of
// operations (dot products, norms, axpy, matrix multiply) that TF-IDF,
// NMF, Word2Vec, PCA, and the classifiers need.
//
// All operations are deterministic and allocate only when documented.
// Dot, Axpy, Rotate, PegasosStep, Mul and Matrix.MulVecInto return the
// same bits on every platform: every product is rounded to float64
// before it is added (the float64 conversions block fused
// multiply-add), and the four-lane accumulation order is fixed. On
// amd64 CPUs with AVX2, Dot, Axpy, Rotate and PegasosStep run vector
// kernels (kernels_amd64.s) that use only separate multiplies and
// adds, so they return the bits of the portable Go loops, which every
// other CPU runs.
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
//
// With AVX2 the lanes are one vector register; the tail and the
// combine are the portable code's, so the bits are the same.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	if hasAVX2 {
		return dotAVX2(a, b)
	}
	return dotGo(a, b)
}

// dotGo is the portable Dot, for equal-length a and b.
func dotGo(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	return dotFinish(s0, s1, s2, s3, a[i:], b[i:])
}

// dotFinish adds the tail a·b, element by element, to the fixed
// combine of Dot's four lane sums.
func dotFinish(s0, s1, s2, s3 float64, a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for i := range a {
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
// Each product is rounded before it is added, as in Dot, so the bits
// are the same on every platform; with AVX2 four elements run at once.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if hasAVX2 {
		axpyAVX2(a, x, y)
		return
	}
	axpyGo(a, x, y)
}

// axpyGo is the portable Axpy, for len(y) >= len(x).
func axpyGo(a float64, x, y []float64) {
	y = y[:len(x)]
	for i := range x {
		y[i] += float64(a * x[i])
	}
}

// Rotate turns every pair (x[i], y[i]) by the plane rotation with
// sine s and tau = s/(1+c), where c is the cosine: the pair becomes
// (c·x[i] − s·y[i], s·x[i] + c·y[i]), computed in the form of Numerical
// Recipes' jacobi so that small rotations round well. It panics on
// length mismatch. Every product is rounded before it is added, so the
// bits are the same on every platform; with AVX2 four pairs turn at
// once.
func Rotate(x, y []float64, s, tau float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: Rotate length mismatch %d vs %d", len(x), len(y)))
	}
	if hasAVX2 {
		rotateAVX2(x, y, s, tau)
		return
	}
	rotateGo(x, y, s, tau)
}

// rotateGo is the portable Rotate, for len(y) >= len(x).
func rotateGo(x, y []float64, s, tau float64) {
	y = y[:len(x)]
	for i := range x {
		x[i], y[i] = turn(x[i], y[i], s, tau)
	}
}

// turn rotates the pair (g, h) to (c·g − s·h, s·g + c·h), written with
// tau = s/(1+c) in place of c.
func turn(g, h, s, tau float64) (float64, float64) {
	return g - float64(s*(h+float64(g*tau))), h + float64(s*(g-float64(h*tau)))
}

// PegasosStep runs one step of a Pegasos SVM's weight update and
// returns the next step's margin product. Per element it sets w[j] to
// w[j]*c, plus a*x[j] when hinge is set; when avg is set it then moves
// avgW[j] toward the new w[j] by inv: avgW[j] += (w[j]-avgW[j])*inv.
// It returns Dot(w, next) of the updated w. It panics unless avgW, x
// and next are as long as w.
//
// The result has the bits of a Scale, an Axpy, a running-average loop
// and a Dot run one after another. With AVX2 the update and the four
// Dot lanes run in one pass over the vectors.
func PegasosStep(w, avgW, x, next []float64, c, a, inv float64, hinge, avg bool) float64 {
	if len(avgW) != len(w) || len(x) != len(w) || len(next) != len(w) {
		panic(fmt.Sprintf("mathx: PegasosStep length mismatch %d/%d/%d/%d", len(w), len(avgW), len(x), len(next)))
	}
	if hasAVX2 {
		return pegasosAVX2(w, avgW, x, next, c, a, inv, hinge, avg)
	}
	pegasosStep(w, avgW, x, c, a, inv, hinge, avg)
	return Dot(w, next)
}

// pegasosStep is PegasosStep's portable update, without the margin,
// for avgW and x at least as long as w. The float64 conversions stop
// any compiler from fusing a product and a sum into one rounding.
func pegasosStep(w, avgW, x []float64, c, a, inv float64, hinge, avg bool) {
	avgW = avgW[:len(w)]
	x = x[:len(w)]
	switch {
	case hinge && avg:
		for j := range w {
			wj := float64(w[j]*c) + float64(a*x[j])
			w[j] = wj
			avgW[j] += float64((wj - avgW[j]) * inv)
		}
	case hinge:
		for j := range w {
			w[j] = float64(w[j]*c) + float64(a*x[j])
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
