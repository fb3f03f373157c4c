package mathx

import (
	"math/rand"
	"testing"
)

// The vector kernels below sit on E09's critical path: power-iteration
// PCA spends nearly all its time in MulVecInto on the 410×410
// covariance matrix of its features, so
// these benches guard both speed and the zero-allocation property of
// the *Into variants.

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

func benchMulVecInto(b *testing.B, n int) {
	m := NewMatrix(n, n)
	for r := 0; r < n; r++ {
		copy(m.Row(r), benchVec(n, int64(3+r)))
	}
	v := benchVec(n, 4)
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MulVecInto(dst, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulVecInto410 is the product E09's power iteration repeats;
// on amd64 with AVX2 it runs the four-row dotLanes4 kernel.
func BenchmarkMulVecInto410(b *testing.B) { benchMulVecInto(b, 410) }

func BenchmarkMulVecInto440(b *testing.B) { benchMulVecInto(b, 440) }

func BenchmarkSubInto440(b *testing.B) {
	x, y := benchVec(440, 5), benchVec(440, 6)
	dst := make([]float64, 440)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SubInto(dst, x, y)
	}
}
