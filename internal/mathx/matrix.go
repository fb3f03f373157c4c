package mathx

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
// The zero value is an empty (0x0) matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
// It panics when either dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mathx: NewMatrix negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices. All rows must have the
// same length; the data is copied.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrDimensionMismatch, i, len(r), cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Row returns a mutable view of row i (no copy).
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mathx: row %d out of range [0,%d)", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mathx: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns a new matrix that is the transpose of m.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product a×b. Each product is rounded before
// it is added, as in Axpy, which runs the inner loop.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: %dx%d × %dx%d", ErrDimensionMismatch, a.rows, a.cols, b.rows, b.cols)
	}
	out := NewMatrix(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			Axpy(av, b.Row(k), or)
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m×v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	out := make([]float64, m.rows)
	if err := m.MulVecInto(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecInto computes dst = m×v without allocating; dst must have
// length m.Rows() and must not alias v. dst[i] has the bits of
// Dot(m.Row(i), v) on every platform.
func (m *Matrix) MulVecInto(dst, v []float64) error {
	if m.cols != len(v) {
		return fmt.Errorf("%w: %dx%d × %d", ErrDimensionMismatch, m.rows, m.cols, len(v))
	}
	if len(dst) != m.rows {
		return fmt.Errorf("%w: dst %d for %d rows", ErrDimensionMismatch, len(dst), m.rows)
	}
	for i := range dst {
		dst[i] = Dot(m.Row(i), v)
	}
	return nil
}

// Apply replaces every element with f(element), in place, and returns m.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	for i, v := range m.data {
		m.data[i] = f(v)
	}
	return m
}

// Equal reports whether a and b have the same shape and all elements
// within tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// CovarianceMatrix returns the (cols×cols) covariance matrix of the
// rows of x, treating each row as an observation. Columns are centered
// with their sample means; the normalizer is n-1 (sample covariance).
// Each product is rounded before it is added, as in Axpy, which
// accumulates each row.
func CovarianceMatrix(x *Matrix) (*Matrix, error) {
	n := x.rows
	if n < 2 {
		return nil, fmt.Errorf("mathx: covariance needs at least 2 rows, have %d", n)
	}
	d := x.cols
	means := make([]float64, d)
	for i := 0; i < n; i++ {
		Axpy(1, x.Row(i), means)
	}
	Scale(means, 1/float64(n))

	cov := NewMatrix(d, d)
	centered := make([]float64, d)
	for i := 0; i < n; i++ {
		SubInto(centered, x.Row(i), means)
		for a, ca := range centered {
			if ca == 0 {
				continue
			}
			Axpy(ca, centered, cov.Row(a))
		}
	}
	cov.Apply(func(v float64) float64 { return v / float64(n-1) })
	return cov, nil
}
