// Package pca implements exact Principal Component Analysis. The paper
// evaluates PCA-reduced features as one of its classification variants
// (§II-C) with scikit-learn's PCA, an exact SVD; Fit reproduces it by
// diagonalising the smaller of the Gram and covariance matrices with
// cyclic Jacobi rotations. Nothing in a fit is random, and every
// product is rounded to float64 before it is added, so a fit returns
// the same bits on every platform.
package pca

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"sdnbugs/internal/mathx"
	"sdnbugs/internal/ml"
)

// Errors returned by Fit.
var (
	ErrBadComponents = errors.New("pca: components must be in [1, features]")
	ErrTooFewRows    = errors.New("pca: need at least 2 rows")
	// ErrNotConverged means the eigensolver hit its sweep cap, which
	// finite input does not do; NaN or Inf input does.
	ErrNotConverged = errors.New("pca: eigensolver did not converge")
)

// maxSweeps caps the Jacobi sweeps of one fit. E09's 100×100 Gram
// matrices converge in about ten.
const maxSweeps = 50

// PCA projects data onto its top principal components.
type PCA struct {
	// Components is the target dimensionality.
	Components int

	mean       []float64
	components *mathx.Matrix // Components × features
	eigenvals  []float64
}

// Fit learns the principal components of the rows of x. It
// diagonalises the n×n Gram matrix when x has no more rows than
// columns and the d×d covariance matrix otherwise; both give the same
// components. Components whose eigenvalue is at most
// min(n, d)·2⁻⁵²·λ_max lie in the numerical null space: their row is
// zero and their eigenvalue 0. Each component's largest-magnitude
// entry (the lowest index on a tie) is positive.
func (p *PCA) Fit(x *mathx.Matrix) error {
	return p.fit(x, x.Rows() <= x.Cols())
}

// fit is Fit on the Gram side when gram is set and on the covariance
// side otherwise.
func (p *PCA) fit(x *mathx.Matrix, gram bool) error {
	n, d := x.Rows(), x.Cols()
	if n < 2 {
		return ErrTooFewRows
	}
	if p.Components < 1 || p.Components > d {
		return fmt.Errorf("%w: %d of %d", ErrBadComponents, p.Components, d)
	}
	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		mathx.Axpy(1, x.Row(i), mean)
	}
	mathx.Scale(mean, 1/float64(n))

	var xc *mathx.Matrix // centred x, Gram side only
	var a []float64      // the m×m symmetric matrix to diagonalise
	m := d
	if gram {
		m = n
		xc = mathx.NewMatrix(n, d)
		for i := 0; i < n; i++ {
			mathx.SubInto(xc.Row(i), x.Row(i), mean)
		}
		a = make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				g := mathx.Dot(xc.Row(i), xc.Row(j)) / float64(n-1)
				a[i*n+j], a[j*n+i] = g, g
			}
		}
	} else {
		cov, err := mathx.CovarianceMatrix(x)
		if err != nil {
			return fmt.Errorf("pca: %w", err)
		}
		a = make([]float64, 0, d*d)
		for i := 0; i < d; i++ {
			a = append(a, cov.Row(i)...)
		}
	}
	vals, vecs, err := jacobi(a, m)
	if err != nil {
		return err
	}

	p.mean = mean
	p.components = mathx.NewMatrix(p.Components, d)
	p.eigenvals = make([]float64, p.Components)
	tol := float64(min(n, d)) * 0x1p-52 * vals[0]
	for c := 0; c < p.Components && c < m && vals[c] > tol; c++ {
		row := p.components.Row(c)
		if gram {
			// The covariance eigenvector is Xcᵀu, up to scale.
			for i, ui := range vecs.Row(c) {
				mathx.Axpy(ui, xc.Row(i), row)
			}
			mathx.Normalize(row)
		} else {
			copy(row, vecs.Row(c))
		}
		orient(row)
		p.eigenvals[c] = vals[c]
	}
	return nil
}

// jacobi diagonalises the symmetric m×m row-major matrix a, which it
// overwrites, by cyclic Jacobi rotations in fixed (p, q) order. It
// stops once the off-diagonal mass Σ_{p<q} a_pq² is at most 1e-30
// times the diagonal mass Σ a_pp², and returns ErrNotConverged after
// maxSweeps sweeps. The eigenvalues come back in descending order,
// ties in index order, with the unit eigenvectors as the matching rows
// of vecs.
func jacobi(a []float64, m int) (vals []float64, vecs *mathx.Matrix, err error) {
	v := mathx.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		v.Set(i, i, 1)
	}
	for sweep := 0; ; sweep++ {
		var off, diag float64
		for p := 0; p < m; p++ {
			diag += float64(a[p*m+p] * a[p*m+p])
			for q := p + 1; q < m; q++ {
				off += float64(a[p*m+q] * a[p*m+q])
			}
		}
		if off <= 1e-30*diag {
			break
		}
		if sweep == maxSweeps {
			return nil, nil, ErrNotConverged
		}
		for p := 0; p < m-1; p++ {
			for q := p + 1; q < m; q++ {
				rotate(a, m, v, p, q)
			}
		}
	}
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(a[j*m+j], a[i*m+i]) })
	vals = make([]float64, m)
	vecs = mathx.NewMatrix(m, m)
	for k, i := range order {
		vals[k] = a[i*m+i]
		copy(vecs.Row(k), v.Row(i))
	}
	return vals, vecs, nil
}

// rotate applies the Jacobi rotation that zeroes a_pq to a and to the
// eigenvector rows p and q of v, in the form of Numerical Recipes'
// jacobi. a stays symmetric, so rows p and q are also columns p and
// q: rotate turns the two rows with mathx.Rotate, sets the four
// entries where they cross, and copies the rows into the columns.
func rotate(a []float64, m int, v *mathx.Matrix, p, q int) {
	apq := a[p*m+q]
	if apq == 0 {
		return
	}
	theta := (a[q*m+q] - a[p*m+p]) / (2 * apq)
	t := 1 / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
	if theta < 0 {
		t = -t
	}
	c := 1 / math.Sqrt(float64(t*t)+1)
	s := float64(t * c)
	tau := s / (1 + c)
	rp, rq := a[p*m:(p+1)*m], a[q*m:(q+1)*m]
	app, aqq := rp[p], rq[q]
	mathx.Rotate(rp, rq, s, tau)
	rp[p] = app - float64(t*apq)
	rq[q] = aqq + float64(t*apq)
	rp[q], rq[p] = 0, 0
	for r := 0; r < m; r++ {
		a[r*m+p], a[r*m+q] = rp[r], rq[r]
	}
	mathx.Rotate(v.Row(p), v.Row(q), s, tau)
}

// orient flips v so that its largest-magnitude entry, the lowest index
// on a tie, is positive.
func orient(v []float64) {
	best := 0
	for i := range v {
		if math.Abs(v[i]) > math.Abs(v[best]) {
			best = i
		}
	}
	if v[best] < 0 {
		mathx.Scale(v, -1)
	}
}

// ExplainedVariance returns the eigenvalue of each kept component.
func (p *PCA) ExplainedVariance() ([]float64, error) {
	if p.eigenvals == nil {
		return nil, ml.ErrNotFitted
	}
	return mathx.Clone(p.eigenvals), nil
}

// Transform projects a single feature vector onto the components.
func (p *PCA) Transform(v []float64) ([]float64, error) {
	if p.components == nil {
		return nil, ml.ErrNotFitted
	}
	if len(v) != len(p.mean) {
		return nil, fmt.Errorf("pca: expected %d features, got %d", len(p.mean), len(v))
	}
	centered := mathx.Sub(v, p.mean)
	out, err := p.components.MulVec(centered)
	if err != nil {
		return nil, fmt.Errorf("pca: %w", err)
	}
	return out, nil
}

// TransformMatrix projects every row of x.
func (p *PCA) TransformMatrix(x *mathx.Matrix) (*mathx.Matrix, error) {
	if p.components == nil {
		return nil, ml.ErrNotFitted
	}
	if x.Cols() != len(p.mean) {
		return nil, fmt.Errorf("pca: expected %d features, got %d", len(p.mean), x.Cols())
	}
	out := mathx.NewMatrix(x.Rows(), p.Components)
	centered := make([]float64, len(p.mean))
	for i := 0; i < x.Rows(); i++ {
		mathx.SubInto(centered, x.Row(i), p.mean)
		if err := p.components.MulVecInto(out.Row(i), centered); err != nil {
			return nil, fmt.Errorf("pca: %w", err)
		}
	}
	return out, nil
}

// Reduced wraps an inner classifier behind a PCA projection, making
// "PCA + classifier" a drop-in ml.Classifier.
type Reduced struct {
	// Components is the projected dimensionality.
	Components int
	// Inner is the downstream classifier (required).
	Inner ml.Classifier

	pca *PCA
}

var _ ml.Classifier = (*Reduced)(nil)

// Fit fits the projection then the inner classifier on projected data.
func (r *Reduced) Fit(x *mathx.Matrix, y []int) error {
	if r.Inner == nil {
		return errors.New("pca: Reduced requires an Inner classifier")
	}
	comps := r.Components
	if comps < 1 || comps > x.Cols() {
		comps = x.Cols()
		if comps > 16 {
			comps = 16
		}
	}
	r.pca = &PCA{Components: comps}
	if err := r.pca.Fit(x); err != nil {
		return err
	}
	proj, err := r.pca.TransformMatrix(x)
	if err != nil {
		return err
	}
	return r.Inner.Fit(proj, y)
}

// Predict projects then delegates to the inner classifier.
func (r *Reduced) Predict(features []float64) (int, error) {
	if r.pca == nil {
		return 0, ml.ErrNotFitted
	}
	proj, err := r.pca.Transform(features)
	if err != nil {
		return 0, err
	}
	return r.Inner.Predict(proj)
}

// ReconstructionError returns the mean squared reconstruction error of
// x under the fitted projection — a sanity metric for tests.
func (p *PCA) ReconstructionError(x *mathx.Matrix) (float64, error) {
	if p.components == nil {
		return 0, ml.ErrNotFitted
	}
	var sum float64
	for i := 0; i < x.Rows(); i++ {
		proj, err := p.Transform(x.Row(i))
		if err != nil {
			return 0, err
		}
		// Reconstruct: mean + Σ proj_c * component_c.
		rec := mathx.Clone(p.mean)
		for c := 0; c < p.Components; c++ {
			mathx.Axpy(proj[c], p.components.Row(c), rec)
		}
		diff := mathx.Sub(x.Row(i), rec)
		sum += mathx.Dot(diff, diff)
	}
	if math.IsNaN(sum) {
		return 0, errors.New("pca: reconstruction produced NaN")
	}
	return sum / float64(x.Rows()), nil
}
