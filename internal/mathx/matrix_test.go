package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Errorf("At(1,2) = %v, want 5", m.At(1, 2))
	}
	row := m.Row(1)
	row[0] = 9 // Row is a view.
	if m.At(1, 0) != 9 {
		t.Error("Row should be a mutable view")
	}
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v", m.At(1, 0))
	}
	if _, err := MatrixFromRows([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("want error for ragged rows")
	}
	empty, err := MatrixFromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Errorf("empty: %v %v", empty, err)
	}
}

func TestMatrixOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.Set(0, 2, 1) },
		func() { m.Row(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTranspose(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", mt.Rows(), mt.Cols())
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Error("transpose values wrong")
	}
	back := mt.T()
	if !Equal(m, back, 0) {
		t.Error("double transpose should be identity")
	}
}

func TestMul(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := MatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := MatrixFromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(c, want, 1e-12) {
		t.Errorf("Mul result wrong: %+v", c)
	}
	if _, err := Mul(a, NewMatrix(3, 2)); err == nil {
		t.Error("want dimension error")
	}
}

func TestMulIdentityProperty(t *testing.T) {
	f := func(vals [9]float64) bool {
		a := NewMatrix(3, 3)
		id := NewMatrix(3, 3)
		for i := 0; i < 3; i++ {
			id.Set(i, i, 1)
			for j := 0; j < 3; j++ {
				a.Set(i, j, math.Mod(vals[i*3+j], 1e6))
			}
		}
		left, _ := Mul(id, a)
		right, _ := Mul(a, id)
		return Equal(left, a, 1e-9) && Equal(right, a, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulVec(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 0}, {0, 2}})
	v, err := m.MulVec([]float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != 8 {
		t.Errorf("MulVec = %v", v)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Error("want dimension error")
	}
}

func TestApplyAndFrobenius(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{3, 0}, {0, 4}})
	m.Apply(func(v float64) float64 { return v * 2 })
	if m.At(0, 0) != 6 {
		t.Error("Apply did not modify in place")
	}
}

func TestCovarianceMatrix(t *testing.T) {
	// Two perfectly correlated columns.
	x, _ := MatrixFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	cov, err := CovarianceMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(cov.At(0, 0), 1, 1e-12) {
		t.Errorf("var(x0) = %v, want 1", cov.At(0, 0))
	}
	if !almostEqual(cov.At(1, 1), 4, 1e-12) {
		t.Errorf("var(x1) = %v, want 4", cov.At(1, 1))
	}
	if !almostEqual(cov.At(0, 1), 2, 1e-12) || !almostEqual(cov.At(1, 0), 2, 1e-12) {
		t.Errorf("cov = %v/%v, want 2", cov.At(0, 1), cov.At(1, 0))
	}
	if _, err := CovarianceMatrix(NewMatrix(1, 2)); err == nil {
		t.Error("want error for single observation")
	}
}

func TestCovarianceSymmetricProperty(t *testing.T) {
	f := func(vals [12]float64) bool {
		x := NewMatrix(4, 3)
		for i := 0; i < 4; i++ {
			for j := 0; j < 3; j++ {
				x.Set(i, j, math.Mod(vals[i*3+j], 1e4))
			}
		}
		cov, err := CovarianceMatrix(x)
		if err != nil {
			return false
		}
		for a := 0; a < 3; a++ {
			if cov.At(a, a) < -1e-9 {
				return false // variance must be non-negative
			}
			for b := 0; b < 3; b++ {
				if math.Abs(cov.At(a, b)-cov.At(b, a)) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone should not share data")
	}
}
