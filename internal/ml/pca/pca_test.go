package pca

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sdnbugs/internal/mathx"
	"sdnbugs/internal/ml"
	"sdnbugs/internal/ml/dtree"
)

// anisotropic generates data stretched along (1,1,0) in 3D.
func anisotropic(n int, seed int64) *mathx.Matrix {
	rng := rand.New(rand.NewSource(seed))
	x := mathx.NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		tVal := rng.NormFloat64() * 10
		x.Set(i, 0, tVal+rng.NormFloat64()*0.1)
		x.Set(i, 1, tVal+rng.NormFloat64()*0.1)
		x.Set(i, 2, rng.NormFloat64()*0.1)
	}
	return x
}

func TestFitErrors(t *testing.T) {
	p := PCA{Components: 2}
	if err := p.Fit(mathx.NewMatrix(1, 3)); !errors.Is(err, ErrTooFewRows) {
		t.Errorf("want ErrTooFewRows, got %v", err)
	}
	bad := PCA{Components: 5}
	if err := bad.Fit(anisotropic(10, 1)); !errors.Is(err, ErrBadComponents) {
		t.Errorf("want ErrBadComponents, got %v", err)
	}
	zero := PCA{Components: 0}
	if err := zero.Fit(anisotropic(10, 1)); !errors.Is(err, ErrBadComponents) {
		t.Errorf("want ErrBadComponents, got %v", err)
	}
	var unfitted PCA
	if _, err := unfitted.Transform([]float64{1, 2, 3}); !errors.Is(err, ml.ErrNotFitted) {
		t.Errorf("want ErrNotFitted, got %v", err)
	}
	if _, err := unfitted.ExplainedVariance(); !errors.Is(err, ml.ErrNotFitted) {
		t.Errorf("want ErrNotFitted, got %v", err)
	}
}

func TestPrincipalDirection(t *testing.T) {
	p := PCA{Components: 1}
	if err := p.Fit(anisotropic(500, 1)); err != nil {
		t.Fatal(err)
	}
	dir := p.components.Row(0)
	// Expect ±(1/√2, 1/√2, 0).
	want := 1 / math.Sqrt2
	if math.Abs(math.Abs(dir[0])-want) > 0.05 ||
		math.Abs(math.Abs(dir[1])-want) > 0.05 ||
		math.Abs(dir[2]) > 0.05 {
		t.Errorf("first component = %v, want ±(0.707, 0.707, 0)", dir)
	}
}

func TestExplainedVarianceOrdering(t *testing.T) {
	p := PCA{Components: 3}
	if err := p.Fit(anisotropic(500, 2)); err != nil {
		t.Fatal(err)
	}
	ev, err := p.ExplainedVariance()
	if err != nil {
		t.Fatal(err)
	}
	if !(ev[0] >= ev[1] && ev[1] >= ev[2]-1e-9) {
		t.Errorf("eigenvalues not ordered: %v", ev)
	}
	// First component carries almost all variance.
	total := ev[0] + ev[1] + ev[2]
	if ev[0]/total < 0.95 {
		t.Errorf("first component explains %v of variance, want > 0.95", ev[0]/total)
	}
}

func TestTransformReducesDimensions(t *testing.T) {
	x := anisotropic(100, 3)
	p := PCA{Components: 2}
	if err := p.Fit(x); err != nil {
		t.Fatal(err)
	}
	out, err := p.TransformMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 100 || out.Cols() != 2 {
		t.Errorf("shape %dx%d", out.Rows(), out.Cols())
	}
	if _, err := p.Transform([]float64{1}); err == nil {
		t.Error("want dimension error")
	}
}

func TestReconstructionErrorSmallForDominantSubspace(t *testing.T) {
	x := anisotropic(200, 4)
	p := PCA{Components: 1}
	if err := p.Fit(x); err != nil {
		t.Fatal(err)
	}
	re, err := p.ReconstructionError(x)
	if err != nil {
		t.Fatal(err)
	}
	// Residual noise is ~0.1 σ per axis; MSE should be well below 1.
	if re > 0.5 {
		t.Errorf("reconstruction error %v too high", re)
	}
}

func TestReducedClassifier(t *testing.T) {
	// 3-class blobs in 5D where only the first two dims matter.
	rng := rand.New(rand.NewSource(5))
	n := 300
	x := mathx.NewMatrix(n, 5)
	y := make([]int, n)
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	for i := 0; i < n; i++ {
		c := i % 3
		x.Set(i, 0, centers[c][0]+rng.NormFloat64())
		x.Set(i, 1, centers[c][1]+rng.NormFloat64())
		for j := 2; j < 5; j++ {
			x.Set(i, j, rng.NormFloat64()*0.01)
		}
		y[i] = c
	}
	r := Reduced{Components: 2, Inner: &dtree.Tree{}}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < n; i++ {
		p, err := r.Predict(x.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if p == y[i] {
			hits++
		}
	}
	if acc := float64(hits) / float64(n); acc < 0.95 {
		t.Errorf("reduced classifier accuracy = %v", acc)
	}
}

func TestReducedErrors(t *testing.T) {
	var r Reduced
	if err := r.Fit(mathx.NewMatrix(2, 2), []int{0, 1}); err == nil {
		t.Error("want error for missing Inner")
	}
	r2 := Reduced{Inner: &dtree.Tree{}}
	if _, err := r2.Predict([]float64{1}); !errors.Is(err, ml.ErrNotFitted) {
		t.Errorf("want ErrNotFitted, got %v", err)
	}
}
