package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewECDFEmpty(t *testing.T) {
	if _, err := NewECDF(nil); err == nil {
		t.Fatal("want ErrEmpty")
	}
}

func TestECDFAt(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestECDFQuantile(t *testing.T) {
	e, _ := NewECDF([]float64{10, 20, 30, 40})
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {0.25, 10}, {0.5, 20}, {0.75, 30}, {1, 40}, {-1, 10}, {2, 40},
	}
	for _, tt := range tests {
		if got := e.Quantile(tt.p); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probes []float64) bool {
		if len(raw) == 0 {
			return true
		}
		sample := make([]float64, len(raw))
		for i, v := range raw {
			sample[i] = math.Mod(v, 1e9)
		}
		e, err := NewECDF(sample)
		if err != nil {
			return false
		}
		ps := make([]float64, len(probes))
		for i, v := range probes {
			ps[i] = math.Mod(v, 1e9)
		}
		sort.Float64s(ps)
		prev := -1.0
		for _, x := range ps {
			y := e.At(x)
			if y < prev || y < 0 || y > 1 {
				return false
			}
			prev = y
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e, _ := NewECDF([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	pts := e.Points(11)
	if len(pts) != 11 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("last point Y = %v, want 1", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Error("points not monotone")
		}
	}
	// Constant sample collapses to one point.
	c, _ := NewECDF([]float64{5, 5, 5})
	if got := c.Points(10); len(got) != 1 || got[0].Y != 1 {
		t.Errorf("constant-sample points = %v", got)
	}
}

// Every curve starts at the smallest sample, rises monotonically and
// ends exactly at (max, 1), whatever the sample and the point count.
func TestECDFPointsEndAtMaxProperty(t *testing.T) {
	f := func(raw []float64, count uint8) bool {
		if len(raw) == 0 {
			return true
		}
		sample := make([]float64, len(raw))
		for i, v := range raw {
			sample[i] = math.Mod(v, 1e3)
		}
		e, err := NewECDF(sample)
		if err != nil {
			return false
		}
		n := int(count%64) + 2
		pts := e.Points(n)
		if e.Min() != e.Max() && len(pts) != n {
			return false
		}
		if pts[0].X != e.Min() || pts[len(pts)-1] != (Point{X: e.Max(), Y: 1}) {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y || pts[i].Y > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// A sample where lo + 11*step rounds below hi.
	e, _ := NewECDF([]float64{0.01, 0.7, 51.07})
	if last := e.Points(12)[11]; last != (Point{X: 51.07, Y: 1}) {
		t.Errorf("last point = %+v, want (51.07, 1)", last)
	}
}

func TestPhiCoefficient(t *testing.T) {
	tests := []struct {
		name               string
		n11, n10, n01, n00 int
		want               float64
	}{
		{"perfect-positive", 10, 0, 0, 10, 1},
		{"perfect-negative", 0, 10, 10, 0, -1},
		{"independent", 25, 25, 25, 25, 0},
		{"empty-marginal", 0, 0, 5, 5, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := PhiCoefficient(tt.n11, tt.n10, tt.n01, tt.n00)
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("phi = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPhiBoundedProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		phi := PhiCoefficient(int(a), int(b), int(c), int(d))
		return phi >= -1-1e-9 && phi <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLift(t *testing.T) {
	// a and b always co-occur in half the data: lift = 0.5/(0.5*0.5) = 2.
	if got := Lift(50, 50, 50, 100); math.Abs(got-2) > 1e-12 {
		t.Errorf("lift = %v, want 2", got)
	}
	// Independent: lift = 1.
	if got := Lift(25, 50, 50, 100); math.Abs(got-1) > 1e-12 {
		t.Errorf("lift = %v, want 1", got)
	}
	if Lift(0, 0, 10, 100) != 0 || Lift(0, 10, 10, 0) != 0 {
		t.Error("degenerate lift should be 0")
	}
}
