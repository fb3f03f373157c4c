//go:build !race

package adaboost

import "testing"

// TestFitAllocsIndependentOfRounds checks that a boosting round
// allocates nothing: every buffer Fit needs is sized before the first
// round.
func TestFitAllocsIndependentOfRounds(t *testing.T) {
	x, y := e09Shape(100)
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(10, func() {
			e := Ensemble{Rounds: rounds}
			if err := e.Fit(x, y); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a5, a40 := allocs(5), allocs(40); a5 != a40 {
		t.Errorf("Fit allocates %v objects at Rounds 5 but %v at Rounds 40", a5, a40)
	}
}
