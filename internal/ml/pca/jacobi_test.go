package pca

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sdnbugs/internal/mathx"
)

// randomSymmetric returns a flat m×m symmetric matrix. With psd set it
// is BᵀB for a random m×m B, so every eigenvalue is non-negative;
// otherwise its entries are standard normal deviates and the spectrum
// has both signs.
func randomSymmetric(rng *rand.Rand, m int, psd bool) []float64 {
	b := make([]float64, m*m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	a := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			v := b[i*m+j]
			if psd {
				v = 0
				for k := 0; k < m; k++ {
					v += b[k*m+i] * b[k*m+j]
				}
			}
			a[i*m+j], a[j*m+i] = v, v
		}
	}
	return a
}

// maxAbs returns the largest |x| in v.
func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

func TestJacobiReconstructsOrthonormalBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for m := 1; m <= 12; m++ {
		for _, psd := range []bool{false, true} {
			a := randomSymmetric(rng, m, psd)
			scale := maxAbs(a)
			vals, vecs, err := jacobi(append([]float64(nil), a...), m)
			if err != nil {
				t.Fatalf("m=%d: %v", m, err)
			}
			for k := 1; k < m; k++ {
				if vals[k] > vals[k-1] {
					t.Fatalf("m=%d: eigenvalues not descending: %v", m, vals)
				}
			}
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					// (VΛVᵀ)_ij and (VᵀV)_ij with the eigenvectors as
					// the columns of V (the rows of vecs).
					var rec, gram float64
					for k := 0; k < m; k++ {
						rec += vals[k] * vecs.At(k, i) * vecs.At(k, j)
						gram += vecs.At(i, k) * vecs.At(j, k)
					}
					if d := math.Abs(rec - a[i*m+j]); d > 1e-12*scale {
						t.Fatalf("m=%d psd=%v: |VΛVᵀ - A|[%d,%d] = %g", m, psd, i, j, d)
					}
					if i == j {
						gram--
					}
					if math.Abs(gram) > 1e-13 {
						t.Fatalf("m=%d psd=%v: |VᵀV - I|[%d,%d] = %g", m, psd, i, j, gram)
					}
				}
			}
		}
	}
}

// powerEigenvalues returns the eigenvalues of the positive semidefinite
// m×m matrix a, largest first, by power iteration with deflation, each
// run until the iterate moves less than 1e-14.
func powerEigenvalues(t *testing.T, a []float64, m int) []float64 {
	t.Helper()
	a = append([]float64(nil), a...)
	out := make([]float64, m)
	v, nv := make([]float64, m), make([]float64, m)
	for c := 0; c < m; c++ {
		for i := range v {
			v[i] = 1 / math.Sqrt(float64(m+i))
		}
		mathx.Normalize(v)
		var lambda float64
		for it := 0; ; it++ {
			if it == 1_000_000 {
				t.Fatalf("power iteration did not converge on component %d", c)
			}
			for i := range nv {
				nv[i] = mathx.Dot(a[i*m:(i+1)*m], v)
			}
			lambda = mathx.Norm2(nv)
			if lambda < 1e-300 {
				break
			}
			mathx.Scale(nv, 1/lambda)
			delta := mathx.Norm2(mathx.Sub(nv, v))
			copy(v, nv)
			if delta < 1e-14 {
				break
			}
		}
		out[c] = lambda
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				a[i*m+j] -= lambda * v[i] * v[j]
			}
		}
	}
	return out
}

func TestJacobiMatchesConvergedPowerIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for m := 2; m <= 6; m++ {
		for rep := 0; rep < 3; rep++ {
			a := randomSymmetric(rng, m, true)
			want := powerEigenvalues(t, a, m)
			got, _, err := jacobi(append([]float64(nil), a...), m)
			if err != nil {
				t.Fatal(err)
			}
			for k := range got {
				if math.Abs(got[k]-want[k]) > 1e-9*want[0] {
					t.Fatalf("m=%d rep=%d: eigenvalues %v, power iteration %v", m, rep, got, want)
				}
			}
		}
	}
}

// gaussianRows returns an n×d matrix of normal deviates whose column j
// has standard deviation j+1, so the spectrum has clear gaps.
func gaussianRows(n, d int, seed int64) *mathx.Matrix {
	rng := rand.New(rand.NewSource(seed))
	x := mathx.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, 3+rng.NormFloat64()*float64(j+1))
		}
	}
	return x
}

func TestGramAndCovarianceSidesAgree(t *testing.T) {
	const d = 6
	for _, n := range []int{d - 1, d, d + 1} {
		x := gaussianRows(n, d, int64(n))
		gram, cov := PCA{Components: d}, PCA{Components: d}
		if err := gram.fit(x, true); err != nil {
			t.Fatal(err)
		}
		if err := cov.fit(x, false); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < d; c++ {
			// Centred data of n rows has rank n-1.
			if zero := c >= n-1; zero != (gram.eigenvals[c] == 0) || zero != (cov.eigenvals[c] == 0) {
				t.Fatalf("n=%d component %d: eigenvalues gram %g, covariance %g, want zero = %v",
					n, c, gram.eigenvals[c], cov.eigenvals[c], zero)
			}
			if diff := math.Abs(gram.eigenvals[c] - cov.eigenvals[c]); diff > 1e-12*gram.eigenvals[0] {
				t.Errorf("n=%d component %d: eigenvalue gram %g, covariance %g", n, c, gram.eigenvals[c], cov.eigenvals[c])
			}
			g, v := gram.components.Row(c), cov.components.Row(c)
			for j := range g {
				if math.Abs(g[j]-v[j]) > 1e-9 {
					t.Errorf("n=%d component %d: gram %v, covariance %v", n, c, g, v)
					break
				}
			}
		}
	}
}

func TestComponentsAboveRankAreZero(t *testing.T) {
	x := gaussianRows(4, 10, 3) // centred rank 3
	p := PCA{Components: 8}
	if err := p.Fit(x); err != nil {
		t.Fatal(err)
	}
	ev, err := p.ExplainedVariance()
	if err != nil {
		t.Fatal(err)
	}
	for c := range ev {
		row := p.components.Row(c)
		if c < 3 {
			if ev[c] <= 0 || math.Abs(mathx.Norm2(row)-1) > 1e-12 {
				t.Errorf("component %d: eigenvalue %g, norm %g", c, ev[c], mathx.Norm2(row))
			}
			continue
		}
		if ev[c] != 0 || maxAbs(row) != 0 {
			t.Errorf("component %d above rank: eigenvalue %g, row %v", c, ev[c], row)
		}
	}
}

func TestFitRejectsNonFiniteInput(t *testing.T) {
	for _, shape := range [][2]int{{4, 6}, {8, 3}} {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			x := gaussianRows(shape[0], shape[1], 4)
			x.Set(1, 2, bad)
			p := PCA{Components: 2}
			if err := p.Fit(x); !errors.Is(err, ErrNotConverged) {
				t.Errorf("%dx%d with %v: err = %v, want ErrNotConverged", shape[0], shape[1], bad, err)
			}
		}
	}
}

// TestFitPinnedBits pins a 6×6 fit (the Gram side) bit for bit, so a
// reordered or fused operation anywhere in Fit shows.
func TestFitPinnedBits(t *testing.T) {
	x, err := mathx.MatrixFromRows([][]float64{
		{2.5, -1, 0.25, 4, 3, -2},
		{0.5, 2, -1.5, 1, 0, 1},
		{-3, 0.75, 2, -2.5, 1.5, 0.5},
		{1, -0.5, 3.5, 0, -1, 2.25},
		{4, 1.25, -0.5, 1.5, 2, -3},
		{-1.5, 3, 1, -1, 0.5, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := PCA{Components: 6}
	if err := p.Fit(x); err != nil {
		t.Fatal(err)
	}
	wantVals := []uint64{
		0x402c80f125da5dc4, 0x401156280bb5aaff, 0x40058f84ab578282,
		0x3ff5b99c867ff532, 0x3fd2943a8c152678, 0, // rank 5
	}
	wantFirst := []uint64{
		0x3fe3d01d36b27c91, 0xbfc1124be64aceb8, 0xbfd17b1f10e58bcd,
		0x3fe171f4e0e83b96, 0x3fceb5ca52b368d3, 0xbfda592ee90c9827,
	}
	for c, v := range p.eigenvals {
		if got := math.Float64bits(v); got != wantVals[c] {
			t.Errorf("eigenvalue %d = %v (%#x), want %#x", c, v, got, wantVals[c])
		}
	}
	for j, v := range p.components.Row(0) {
		if got := math.Float64bits(v); got != wantFirst[j] {
			t.Errorf("first component[%d] = %v (%#x), want %#x", j, v, got, wantFirst[j])
		}
	}
}

// referenceRotate is rotate as first written: it reads and writes
// columns p and q of a element by element and turns the rows of v
// pair by pair. rotate must leave the same bits in a and v.
func referenceRotate(a []float64, m int, v *mathx.Matrix, p, q int) {
	turn := func(g, h, s, tau float64) (float64, float64) {
		return g - float64(s*(h+float64(g*tau))), h + float64(s*(g-float64(h*tau)))
	}
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
	a[p*m+p] -= float64(t * apq)
	a[q*m+q] += float64(t * apq)
	a[p*m+q], a[q*m+p] = 0, 0
	for r := 0; r < m; r++ {
		if r == p || r == q {
			continue
		}
		g, h := turn(a[r*m+p], a[r*m+q], s, tau)
		a[r*m+p], a[p*m+r] = g, g
		a[r*m+q], a[q*m+r] = h, h
	}
	vp, vq := v.Row(p), v.Row(q)
	for r := range vp {
		vp[r], vq[r] = turn(vp[r], vq[r], s, tau)
	}
}

// TestRotateMatchesReference runs two cyclic sweeps of rotations on
// random symmetric matrices, every len%4 tail among them, with rotate
// and with referenceRotate, and compares a and v bit for bit after
// every rotation.
func TestRotateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, m := range []int{2, 3, 4, 5, 6, 7, 8, 9, 13, 24, 41} {
		for _, psd := range []bool{false, true} {
			a := randomSymmetric(rng, m, psd)
			ref := append([]float64(nil), a...)
			v, refV := mathx.NewMatrix(m, m), mathx.NewMatrix(m, m)
			for i := 0; i < m; i++ {
				v.Set(i, i, 1)
				refV.Set(i, i, 1)
			}
			for sweep := 0; sweep < 2; sweep++ {
				for p := 0; p < m-1; p++ {
					for q := p + 1; q < m; q++ {
						rotate(a, m, v, p, q)
						referenceRotate(ref, m, refV, p, q)
						for i := range a {
							if math.Float64bits(a[i]) != math.Float64bits(ref[i]) {
								t.Fatalf("m=%d psd=%v rotation (%d,%d): a[%d] = %v, reference %v", m, psd, p, q, i, a[i], ref[i])
							}
						}
						for i := 0; i < m; i++ {
							for j := 0; j < m; j++ {
								if g, w := v.At(i, j), refV.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
									t.Fatalf("m=%d psd=%v rotation (%d,%d): v[%d][%d] = %v, reference %v", m, psd, p, q, i, j, g, w)
								}
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkJacobi100 diagonalises the Gram matrix of E09's PCA fit:
// 100 training rows of 410 sparse TF-IDF features at unit L2 norm,
// centred, Xc·Xcᵀ/(n−1).
func BenchmarkJacobi100(b *testing.B) {
	const n, d = 100, 410
	rng := rand.New(rand.NewSource(9))
	x := mathx.NewMatrix(n, d)
	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			if rng.Intn(100) >= 85 {
				row[j] = rng.Float64()
			}
		}
		mathx.Normalize(row)
		mathx.Axpy(1, row, mean)
	}
	mathx.Scale(mean, 1/float64(n))
	for i := 0; i < n; i++ {
		mathx.SubInto(x.Row(i), x.Row(i), mean)
	}
	gram := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			g := mathx.Dot(x.Row(i), x.Row(j)) / float64(n-1)
			gram[i*n+j], gram[j*n+i] = g, g
		}
	}
	a := make([]float64, n*n)
	b.ReportAllocs()
	for b.Loop() {
		copy(a, gram)
		if _, _, err := jacobi(a, n); err != nil {
			b.Fatal(err)
		}
	}
}
