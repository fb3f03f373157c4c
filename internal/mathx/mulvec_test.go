package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// specials are the values where a reordered or fused update shows:
// signed zeros, subnormals, infinities, NaN, and magnitudes whose
// products or sums overflow.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022,
	math.MaxFloat64, -math.MaxFloat64, 1e308, -1e308, 1.5e154, -1.5e154,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// sameBits reports whether x and y have the same bits. Two NaNs count
// as the same: which operand's payload propagates is not part of
// Dot's contract.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// checkMulVecMatchesDot fails t unless every element of MulVecInto's
// m×v has the bits of Dot on the matching row.
func checkMulVecMatchesDot(t *testing.T, m *Matrix, v []float64) {
	t.Helper()
	dst := make([]float64, m.Rows())
	if err := m.MulVecInto(dst, v); err != nil {
		t.Fatal(err)
	}
	for i, got := range dst {
		if want := Dot(m.Row(i), v); !sameBits(got, want) {
			t.Fatalf("%dx%d row %d: MulVecInto = %v (%#x), Dot = %v (%#x)",
				m.Rows(), m.Cols(), i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// randomOperands fills a rows×cols matrix and a cols vector with
// randomValue entries.
func randomOperands(rng *rand.Rand, rows, cols int, special bool) (*Matrix, []float64) {
	m := NewMatrix(rows, cols)
	for i := range m.data {
		m.data[i] = randomValue(rng, special)
	}
	v := make([]float64, cols)
	for i := range v {
		v[i] = randomValue(rng, special)
	}
	return m, v
}

func TestMulVecIntoMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Every len%4 tail, plain and with specials.
	for rows := 0; rows <= 5; rows++ {
		for cols := 0; cols <= 13; cols++ {
			for _, special := range []bool{false, true} {
				for rep := 0; rep < 20; rep++ {
					m, v := randomOperands(rng, rows, cols, special)
					checkMulVecMatchesDot(t, m, v)
				}
			}
		}
	}
	// E09's PCA projection: 24 components of 410 features.
	for _, special := range []bool{false, true} {
		m, v := randomOperands(rng, 24, 410, special)
		checkMulVecMatchesDot(t, m, v)
	}
	// Every entry a special, so each Dot lane meets each pair of them.
	for _, n := range []int{7, 16} {
		m := NewMatrix(n, n)
		v := make([]float64, n)
		for i := range m.data {
			m.data[i] = specials[(i*7)%len(specials)]
		}
		for i := range v {
			v[i] = specials[(i*5+3)%len(specials)]
		}
		checkMulVecMatchesDot(t, m, v)
	}
}
