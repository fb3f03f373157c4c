package mathx

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// specials are the values where a reordered or fused lane update
// shows: signed zeros, subnormals, infinities, NaN, and magnitudes
// whose products or sums overflow.
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

// checkMulVecMatchesDot fails t unless every element of m×v has the
// bits of Dot on the matching row, both through MulVecInto (the AVX2
// kernel where the CPU has it) and through the portable mulVecRows,
// so an AVX2 host still checks the fallback.
func checkMulVecMatchesDot(t *testing.T, m *Matrix, v []float64) {
	t.Helper()
	dst := make([]float64, m.Rows())
	if err := m.MulVecInto(dst, v); err != nil {
		t.Fatal(err)
	}
	rows := make([]float64, m.Rows())
	mulVecRows(m, rows, v)
	for i := range dst {
		want := Dot(m.Row(i), v)
		for _, c := range []struct {
			path string
			got  float64
		}{{"MulVecInto", dst[i]}, {"mulVecRows", rows[i]}} {
			if !sameBits(c.got, want) {
				t.Fatalf("%dx%d row %d: %s = %v (%#x), Dot = %v (%#x)",
					m.Rows(), m.Cols(), i, c.path, c.got, math.Float64bits(c.got), want, math.Float64bits(want))
			}
		}
	}
}

// randomOperands fills a rows×cols matrix and a cols vector. With
// special set, about a quarter of the entries come from specials;
// the rest are normal deviates spread over many binades so the lane
// order shows in the rounding.
func randomOperands(rng *rand.Rand, rows, cols int, special bool) (*Matrix, []float64) {
	val := func() float64 {
		if special && rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return math.Ldexp(rng.NormFloat64(), rng.Intn(41)-20)
	}
	m := NewMatrix(rows, cols)
	for i := range m.data {
		m.data[i] = val()
	}
	v := make([]float64, cols)
	for i := range v {
		v[i] = val()
	}
	return m, v
}

func TestMulVecIntoMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Every len%4 tail and every rows%4 remainder, plain and with specials.
	for rows := 0; rows <= 9; rows++ {
		for cols := 0; cols <= 13; cols++ {
			for _, special := range []bool{false, true} {
				for rep := 0; rep < 20; rep++ {
					m, v := randomOperands(rng, rows, cols, special)
					checkMulVecMatchesDot(t, m, v)
				}
			}
		}
	}
	// E09's covariance shape, and the shape the benches have used.
	for _, n := range []int{410, 440} {
		for _, special := range []bool{false, true} {
			m, v := randomOperands(rng, n, n, special)
			checkMulVecMatchesDot(t, m, v)
		}
	}
	// Every entry a special, so each lane meets each pair of them.
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

// FuzzMulVecInto compares MulVecInto and mulVecRows with row-wise Dot
// on a fuzzer-chosen shape; the values are the raw float64 bits of data,
// cycled to fill the matrix and then the vector.
func FuzzMulVecInto(f *testing.F) {
	seed := make([]byte, 0, 8*len(specials))
	for _, x := range specials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(uint8(3), uint8(7), seed)
	f.Add(uint8(2), uint8(8), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte) {
		r, c := int(rows%33), int(cols%67)
		m := NewMatrix(r, c)
		v := make([]float64, c)
		if n := len(data) / 8; n > 0 {
			k := 0
			next := func() float64 {
				x := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(k%n):]))
				k++
				return x
			}
			for i := range m.data {
				m.data[i] = next()
			}
			for i := range v {
				v[i] = next()
			}
		}
		checkMulVecMatchesDot(t, m, v)
	})
}
