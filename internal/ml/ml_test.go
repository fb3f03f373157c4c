package ml

import (
	"math"
	"testing"

	"sdnbugs/internal/mathx"
)

func toyData(t *testing.T) *Dataset {
	t.Helper()
	x, err := mathx.MatrixFromRows([][]float64{
		{0, 0}, {0, 1}, {1, 0}, {1, 1},
		{10, 10}, {10, 11}, {11, 10}, {11, 11},
		{0, 10}, {1, 10}, {0, 11}, {1, 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	y := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	d, err := NewDataset(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDatasetErrors(t *testing.T) {
	if _, err := NewDataset(nil, nil); err == nil {
		t.Error("want error for nil matrix")
	}
	if _, err := NewDataset(mathx.NewMatrix(0, 2), nil); err == nil {
		t.Error("want error for empty matrix")
	}
	if _, err := NewDataset(mathx.NewMatrix(2, 2), []int{1}); err == nil {
		t.Error("want error for length mismatch")
	}
}

func TestDatasetSubset(t *testing.T) {
	d := toyData(t)
	sub, err := d.Subset([]int{0, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 || sub.Y[1] != 1 {
		t.Errorf("subset wrong: %+v", sub.Y)
	}
	if _, err := d.Subset(nil); err == nil {
		t.Error("want error for empty subset")
	}
	if _, err := d.Subset([]int{99}); err == nil {
		t.Error("want error for out-of-range index")
	}
	// Subset copies data.
	sub.X.Set(0, 0, 42)
	if d.X.At(0, 0) == 42 {
		t.Error("subset must copy data")
	}
}

func TestTrainTestSplit(t *testing.T) {
	d := toyData(t)
	train, test, err := TrainTestSplit(d, 2.0/3.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != d.Len() {
		t.Errorf("split sizes %d+%d != %d", train.Len(), test.Len(), d.Len())
	}
	if train.Len() != 8 {
		t.Errorf("train size = %d, want 8", train.Len())
	}
	if _, _, err := TrainTestSplit(d, 0, 1); err == nil {
		t.Error("want error for frac 0")
	}
	if _, _, err := TrainTestSplit(d, 1, 1); err == nil {
		t.Error("want error for frac 1")
	}
	// Deterministic for seed.
	tr2, _, _ := TrainTestSplit(d, 2.0/3.0, 1)
	for i := range train.Y {
		if train.Y[i] != tr2.Y[i] {
			t.Fatal("same seed should give same split")
		}
	}
}

func TestAccuracy(t *testing.T) {
	acc, err := Accuracy([]int{1, 2, 3}, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-2.0/3.0) > 1e-12 {
		t.Errorf("acc = %v", acc)
	}
	if _, err := Accuracy([]int{1}, []int{1, 2}); err == nil {
		t.Error("want mismatch error")
	}
	if _, err := Accuracy(nil, nil); err == nil {
		t.Error("want empty error")
	}
}

// centroid is a trivial nearest-centroid classifier for scaffold tests.
type centroid struct {
	centers *mathx.Matrix
}

func (c *centroid) Fit(x *mathx.Matrix, y []int) error {
	k := 0
	for _, v := range y {
		if v+1 > k {
			k = v + 1
		}
	}
	c.centers = mathx.NewMatrix(k, x.Cols())
	counts := make([]float64, k)
	for i := 0; i < x.Rows(); i++ {
		mathx.Axpy(1, x.Row(i), c.centers.Row(y[i]))
		counts[y[i]]++
	}
	for cl := 0; cl < k; cl++ {
		if counts[cl] > 0 {
			mathx.Scale(c.centers.Row(cl), 1/counts[cl])
		}
	}
	return nil
}

func (c *centroid) Predict(f []float64) (int, error) {
	best, bestD := 0, math.Inf(1)
	for cl := 0; cl < c.centers.Rows(); cl++ {
		d := mathx.Norm2(mathx.Sub(f, c.centers.Row(cl)))
		if d < bestD {
			best, bestD = cl, d
		}
	}
	return best, nil
}

func TestEvaluateSplitAndCrossValidate(t *testing.T) {
	d := toyData(t)
	train, test, err := TrainTestSplit(d, 2.0/3.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := EvaluateSplit(&centroid{}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Errorf("separable data accuracy = %v, want 1", acc)
	}
}
