package mathx

import (
	"math/rand"
	"testing"
)

// These benches guard the speed of Dot, which the PCA Gram matrix and
// the classifiers call on E09's 410-feature rows, and the
// zero-allocation property of the *Into variants.

func benchVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func BenchmarkDot440(b *testing.B) {
	x, y := benchVec(440, 1), benchVec(440, 2)
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s += Dot(x, y)
	}
	_ = s
}

func BenchmarkSubInto440(b *testing.B) {
	x, y := benchVec(440, 5), benchVec(440, 6)
	dst := make([]float64, 440)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SubInto(dst, x, y)
	}
}
