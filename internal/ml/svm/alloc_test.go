//go:build !race

package svm

import "testing"

// TestFitBinaryAllocsIndependentOfEpochs checks that a training step
// allocates nothing: every buffer FitBinary needs is sized before the
// first step.
func TestFitBinaryAllocsIndependentOfEpochs(t *testing.T) {
	x, y := e09Shape(100, 5)
	bin := signs(y, 0)
	allocs := func(epochs int) float64 {
		return testing.AllocsPerRun(10, func() {
			s := Binary{Lambda: 1e-4, Epochs: epochs, Balanced: true}
			if err := s.FitBinary(x, bin); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a5, a80 := allocs(5), allocs(80); a5 != a80 {
		t.Errorf("FitBinary allocates %v objects at Epochs 5 but %v at Epochs 80", a5, a80)
	}
}
