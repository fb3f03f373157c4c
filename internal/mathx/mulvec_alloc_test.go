//go:build !race

package mathx

import (
	"math/rand"
	"testing"
)

func TestMulVecIntoZeroAlloc(t *testing.T) {
	m, v := randomOperands(rand.New(rand.NewSource(2)), 41, 41, false)
	dst := make([]float64, m.Rows())
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.MulVecInto(dst, v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MulVecInto allocates %v objects per call, want 0", allocs)
	}
}
