package svm

import (
	"math"
	"math/rand"
	"testing"

	"sdnbugs/internal/mathx"
)

// referenceFitBinary is FitBinary as first written: each step runs
// mathx.Scale over w, then mathx.Axpy on a hinge step, then its own
// running-average loop. FitBinary's fused step must leave the same
// bits in w and b.
func referenceFitBinary(s *Binary, x *mathx.Matrix, y []int) {
	lambda := s.Lambda
	if lambda <= 0 {
		lambda = 1e-3
	}
	epochs := s.Epochs
	if epochs <= 0 {
		epochs = 20
	}
	n, d := x.Rows(), x.Cols()
	s.w = make([]float64, d)
	s.b = 0
	rng := rand.New(rand.NewSource(s.Seed))
	var pos, neg []int
	if s.Balanced {
		for i, v := range y {
			if v == 1 {
				pos = append(pos, i)
			} else {
				neg = append(neg, i)
			}
		}
		if len(pos) == 0 || len(neg) == 0 {
			pos, neg = nil, nil
		}
	}
	steps := epochs * n
	avgFrom := steps / 2
	avgW := make([]float64, d)
	var avgB float64
	var avgN int
	t := 0
	for e := 0; e < epochs; e++ {
		for range n {
			t++
			var i int
			if pos != nil {
				if rng.Intn(2) == 0 {
					i = pos[rng.Intn(len(pos))]
				} else {
					i = neg[rng.Intn(len(neg))]
				}
			} else {
				i = rng.Intn(n)
			}
			eta := 1 / (lambda * float64(t))
			xi := x.Row(i)
			yi := float64(y[i])
			margin := yi * (mathx.Dot(s.w, xi) + s.b)
			mathx.Scale(s.w, 1-eta*lambda)
			if margin < 1 {
				mathx.Axpy(eta*yi, xi, s.w)
				s.b += eta * yi
			}
			if t > avgFrom {
				avgN++
				inv := 1 / float64(avgN)
				for j, wj := range s.w {
					avgW[j] += (wj - avgW[j]) * inv
				}
				avgB += (s.b - avgB) * inv
			}
		}
	}
	if avgN > 0 {
		s.w = avgW
		s.b = avgB
	}
}

// matchesReference fits cfg both ways and fails t unless w and b have
// the same bits.
func matchesReference(t *testing.T, cfg Binary, x *mathx.Matrix, y []int) {
	t.Helper()
	got, want := cfg, cfg
	if err := got.FitBinary(x, y); err != nil {
		t.Fatal(err)
	}
	referenceFitBinary(&want, x, y)
	for j := range want.w {
		if g, w := math.Float64bits(got.w[j]), math.Float64bits(want.w[j]); g != w {
			t.Fatalf("%dx%d %+v: w[%d] = %v (%#x), reference %v (%#x)",
				x.Rows(), x.Cols(), cfg, j, got.w[j], g, want.w[j], w)
		}
	}
	if g, w := math.Float64bits(got.b), math.Float64bits(want.b); g != w {
		t.Fatalf("%dx%d %+v: b = %v (%#x), reference %v (%#x)",
			x.Rows(), x.Cols(), cfg, got.b, g, want.b, w)
	}
}

// e09Shape builds E09's SVM training split: 100 documents over 410
// features, mostly zero (TF-IDF), rows at unit L2 norm, in k classes.
func e09Shape(rows, k int) (*mathx.Matrix, []int) {
	rng := rand.New(rand.NewSource(9))
	x := mathx.NewMatrix(rows, 410)
	y := make([]int, rows)
	for i := range rows {
		row := x.Row(i)
		for j := range row {
			if rng.Intn(100) >= 85 {
				row[j] = rng.Float64()
			}
		}
		mathx.Normalize(row)
		y[i] = rng.Intn(k)
	}
	return x, y
}

// signs turns class labels into one-vs-rest labels for class c.
func signs(y []int, c int) []int {
	out := make([]int, len(y))
	for i, v := range y {
		out[i] = -1
		if v == c {
			out[i] = 1
		}
	}
	return out
}

func TestFitBinaryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-3, -2.5, 1e10, -1e-10}
	for trial := 0; trial < 60; trial++ {
		n, d := 1+rng.Intn(30), 1+rng.Intn(12)
		x := mathx.NewMatrix(n, d)
		y := make([]int, n)
		for i := range n {
			for j := range d {
				x.Set(i, j, vals[rng.Intn(len(vals))])
			}
			y[i] = 2*rng.Intn(2) - 1
		}
		cfg := Binary{
			Lambda:   []float64{0, 1e-4, 1e-2, 0.7}[rng.Intn(4)],
			Epochs:   rng.Intn(6),
			Seed:     int64(trial),
			Balanced: trial%2 == 0,
		}
		matchesReference(t, cfg, x, y)
	}
	x, y := e09Shape(100, 5)
	for c := range 5 {
		matchesReference(t, Binary{Lambda: 1e-4, Epochs: 80, Seed: int64(c), Balanced: true}, x, signs(y, c))
	}
}

// FuzzFitBinaryMatchesReference fits fuzzer-chosen data both ways.
// Each data byte picks a cell value (signed zeros and ±Inf among
// them) or a label.
func FuzzFitBinaryMatchesReference(f *testing.F) {
	f.Add(uint8(12), uint8(3), uint8(4), uint8(1), true, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 200, 201})
	f.Add(uint8(30), uint8(9), uint8(20), uint8(0), false, []byte("signed zeros and infinities"))
	f.Fuzz(func(t *testing.T, rows, cols, epochs, lambda uint8, balanced bool, data []byte) {
		if len(data) == 0 {
			return
		}
		palette := []float64{
			0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			1, -1, 0.25, -3, 1e-300, 1e300, math.SmallestNonzeroFloat64,
		}
		next := 0
		byteAt := func() byte {
			b := data[next%len(data)]
			next++
			return b
		}
		n, d := 1+int(rows)%40, 1+int(cols)%16
		x := mathx.NewMatrix(n, d)
		y := make([]int, n)
		for i := range n {
			for j := range d {
				if b := byteAt(); b >= 128 {
					x.Set(i, j, palette[int(b)%len(palette)])
				} else {
					x.Set(i, j, float64(int(b)-64)/16)
				}
			}
			y[i] = 1 - 2*int(byteAt()&1)
		}
		cfg := Binary{
			Lambda:   []float64{0, 1e-4, 1e-3, 0.1, 2}[int(lambda)%5],
			Epochs:   int(epochs) % 12,
			Seed:     int64(rows) ^ int64(cols)<<8,
			Balanced: balanced,
		}
		matchesReference(t, cfg, x, y)
	})
}

// BenchmarkMulticlassFit trains E09's SVM on E09's 100-row,
// 410-feature training split: 80 epochs, five one-vs-rest models.
func BenchmarkMulticlassFit(b *testing.B) {
	x, y := e09Shape(100, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := Multiclass{Epochs: 80, Lambda: 1e-4, Balanced: true, Seed: 1}
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
