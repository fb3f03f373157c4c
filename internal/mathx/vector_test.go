package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"empty", nil, nil, 0},
		{"ones", []float64{1, 1, 1}, []float64{1, 1, 1}, 3},
		{"orthogonal", []float64{1, 0}, []float64{0, 1}, 0},
		{"negative", []float64{1, -2, 3}, []float64{4, 5, -6}, 4 - 10 - 18},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dot(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if got := Norm2(v); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Normalize([]float64{3, 4})
	if !almostEqual(Norm2(v), 1, 1e-12) {
		t.Errorf("normalized norm = %v, want 1", Norm2(v))
	}
	zero := Normalize([]float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("zero vector changed: %v", zero)
	}
}

func TestNormalizeUnitNormProperty(t *testing.T) {
	f := func(raw []float64) bool {
		v := make([]float64, len(raw))
		for i, x := range raw {
			// Clamp to avoid overflow when squaring quick's extreme values.
			v[i] = math.Mod(x, 1e6)
		}
		n := Norm2(Clone(v))
		got := Norm2(Normalize(v))
		if n == 0 {
			return got == 0
		}
		return almostEqual(got, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAxpyAddSub(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{10, 20}
	Axpy(2, x, y)
	if y[0] != 12 || y[1] != 24 {
		t.Errorf("Axpy result %v, want [12 24]", y)
	}
	d := Sub([]float64{1, 2}, []float64{3, 4})
	if d[0] != -2 || d[1] != -2 {
		t.Errorf("Sub = %v", d)
	}
}

func TestCosineSimilarity(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"identical", []float64{1, 2}, []float64{1, 2}, 1},
		{"opposite", []float64{1, 0}, []float64{-1, 0}, -1},
		{"orthogonal", []float64{1, 0}, []float64{0, 1}, 0},
		{"zero", []float64{0, 0}, []float64{1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CosineSimilarity(tt.a, tt.b); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCosineSimilarityBounded(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		av, bv := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			av[i] = math.Mod(a[i], 1e6)
			bv[i] = math.Mod(b[i], 1e6)
		}
		c := CosineSimilarity(av, bv)
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(v); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should return 0")
	}
}

func TestArgMaxArgMin(t *testing.T) {
	tests := []struct {
		name string
		v    []float64
		max  int
	}{
		{"empty", nil, -1},
		{"single", []float64{5}, 0},
		{"basic", []float64{1, 5, 3}, 1},
		{"ties-lowest-index", []float64{2, 2, 1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ArgMax(tt.v); got != tt.max {
				t.Errorf("ArgMax = %d, want %d", got, tt.max)
			}
		})
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, 2, 3}) {
		t.Error("finite vector reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Error("NaN not detected")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Error("Inf not detected")
	}
}

func TestScaleAndFill(t *testing.T) {
	v := []float64{1, 2}
	Scale(v, 3)
	if v[0] != 3 || v[1] != 6 {
		t.Errorf("Scale = %v", v)
	}
	Fill(v, 7)
	if v[0] != 7 || v[1] != 7 {
		t.Errorf("Fill = %v", v)
	}
}
