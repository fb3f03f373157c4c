package adaboost

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sdnbugs/internal/mathx"
	"sdnbugs/internal/ml"
)

func TestFitErrors(t *testing.T) {
	var e Ensemble
	if err := e.Fit(mathx.NewMatrix(0, 1), nil); !errors.Is(err, ml.ErrEmptyDataset) {
		t.Errorf("want ErrEmptyDataset, got %v", err)
	}
	x := mathx.NewMatrix(2, 1)
	if err := e.Fit(x, []int{0}); !errors.Is(err, ml.ErrLengthMatch) {
		t.Errorf("want ErrLengthMatch, got %v", err)
	}
	if err := e.Fit(x, []int{-1, 0}); err == nil {
		t.Error("want negative-label error")
	}
	if err := e.Fit(mathx.NewMatrix(3, 0), []int{0, 1, 0}); !errors.Is(err, ml.ErrEmptyDataset) {
		t.Errorf("no features: want ErrEmptyDataset, got %v", err)
	}
	var unfitted Ensemble
	if _, err := unfitted.Predict([]float64{1}); !errors.Is(err, ml.ErrNotFitted) {
		t.Errorf("want ErrNotFitted, got %v", err)
	}
}

func TestSingleStumpProblem(t *testing.T) {
	// Perfectly separable by one threshold: x0 <= 0.5.
	x, _ := mathx.MatrixFromRows([][]float64{{0}, {0.2}, {0.4}, {0.6}, {0.8}, {1}})
	y := []int{0, 0, 0, 1, 1, 1}
	var e Ensemble
	if err := e.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows(); i++ {
		p, _ := e.Predict(x.Row(i))
		if p != y[i] {
			t.Errorf("row %d predicted %d, want %d", i, p, y[i])
		}
	}
	if e.Size() != 1 {
		t.Errorf("perfect stump should stop boosting, size = %d", e.Size())
	}
}

func TestBoostingBeatsSingleStumpOnStaircase(t *testing.T) {
	// Labels alternate across x: a single stump cannot do better than
	// ~2/3; boosting can.
	x, _ := mathx.MatrixFromRows([][]float64{
		{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8},
	})
	y := []int{0, 0, 0, 1, 1, 1, 0, 0, 0}
	one := Ensemble{Rounds: 1}
	many := Ensemble{Rounds: 100}
	if err := one.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := many.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	accOf := func(e *Ensemble) float64 {
		hits := 0
		for i := 0; i < x.Rows(); i++ {
			p, _ := e.Predict(x.Row(i))
			if p == y[i] {
				hits++
			}
		}
		return float64(hits) / float64(x.Rows())
	}
	if a1, am := accOf(&one), accOf(&many); !(am > a1) {
		t.Errorf("boosted accuracy %v should exceed single stump %v", am, a1)
	}
}

func TestMulticlassBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 300
	x := mathx.NewMatrix(n, 2)
	y := make([]int, n)
	centers := [][]float64{{0, 0}, {8, 0}, {0, 8}}
	for i := 0; i < n; i++ {
		c := i % 3
		x.Set(i, 0, centers[c][0]+rng.NormFloat64())
		x.Set(i, 1, centers[c][1]+rng.NormFloat64())
		y[i] = c
	}
	e := Ensemble{Rounds: 60}
	if err := e.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < n; i++ {
		p, _ := e.Predict(x.Row(i))
		if p == y[i] {
			hits++
		}
	}
	if acc := float64(hits) / float64(n); acc < 0.9 {
		t.Errorf("multiclass accuracy = %v", acc)
	}
}

func TestDegenerateSingleClass(t *testing.T) {
	x := mathx.NewMatrix(4, 2)
	y := []int{0, 0, 0, 0}
	var e Ensemble
	if err := e.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p, err := e.Predict([]float64{9, 9})
	if err != nil || p != 0 {
		t.Errorf("degenerate predict = %d, %v", p, err)
	}
}

func TestPredictDimensionCheck(t *testing.T) {
	x, _ := mathx.MatrixFromRows([][]float64{{0, 5}, {1, 5}})
	var e Ensemble
	if err := e.Fit(x, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Predict([]float64{}); err == nil {
		t.Error("want feature-range error")
	}
}

// tieHeavy returns an n×d matrix of which about zeroFrac of the cells
// are 0 and the rest are drawn from vals, with labels in 0..k-1. Few
// distinct values put many ties in every column, so the order in which
// tied rows are swept decides the weight sums.
func tieHeavy(rng *rand.Rand, n, d, k int, zeroFrac float64, vals []float64) (*mathx.Matrix, []int) {
	x := mathx.NewMatrix(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for f := 0; f < d; f++ {
			if rng.Float64() >= zeroFrac {
				x.Set(i, f, vals[rng.Intn(len(vals))])
			}
		}
		y[i] = rng.Intn(k)
	}
	return x, y
}

// e09Shape returns rows × 410 mostly zero features over 5 classes, the
// shape of E09's TF-IDF plus Word2Vec input. E09 trains AdaBoost on
// 100-row splits.
func e09Shape(rows int) (*mathx.Matrix, []int) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	return tieHeavy(rng, rows, 410, 5, 0.85, vals)
}

// BenchmarkEnsembleFit fits E09's 40 rounds on its 100-row training
// split and on a 300-row one.
func BenchmarkEnsembleFit(b *testing.B) {
	for _, rows := range []int{100, 300} {
		x, y := e09Shape(rows)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := Ensemble{Rounds: 40}
				if err := e.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// referenceFit is the boosting loop as first written: it sorts every
// feature column again in each round and predicts each row twice per
// round. Fit must return the same stumps and alphas, bit for bit.
func referenceFit(x *mathx.Matrix, y []int, rounds int) ([]stump, []float64) {
	n := x.Rows()
	k := 0
	for _, v := range y {
		k = max(k, v+1)
	}
	var stumps []stump
	var alphas []float64
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	for r := 0; r < rounds; r++ {
		st := referenceStump(x, y, w, k)
		var werr float64
		for i := 0; i < n; i++ {
			if st.predict(x.Row(i)) != y[i] {
				werr += w[i]
			}
		}
		if werr >= 1-1/float64(k) {
			break
		}
		if werr < 1e-12 {
			stumps = append(stumps, st)
			alphas = append(alphas, 10)
			break
		}
		alpha := math.Log((1-werr)/werr) + math.Log(float64(k)-1)
		stumps = append(stumps, st)
		alphas = append(alphas, alpha)
		var z float64
		for i := 0; i < n; i++ {
			if st.predict(x.Row(i)) != y[i] {
				w[i] *= math.Exp(alpha)
			}
			z += w[i]
		}
		for i := range w {
			w[i] /= z
		}
	}
	if len(stumps) == 0 {
		maj := majority(y, k)
		stumps = append(stumps, stump{feature: 0, threshold: math.Inf(1), classLeft: maj, classRight: maj})
		alphas = append(alphas, 1)
	}
	return stumps, alphas
}

// referenceStump is the per-round stump search as first written.
func referenceStump(x *mathx.Matrix, y []int, w []float64, k int) stump {
	n, d := x.Rows(), x.Cols()
	bestErr := math.Inf(1)
	var best stump
	type pv struct {
		v float64
		y int
		w float64
	}
	pairs := make([]pv, n)
	leftW := make([]float64, k)
	rightW := make([]float64, k)
	for f := 0; f < d; f++ {
		for i := 0; i < n; i++ {
			pairs[i] = pv{x.At(i, f), y[i], w[i]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
		for c := 0; c < k; c++ {
			leftW[c] = 0
			rightW[c] = 0
		}
		for i := 0; i < n; i++ {
			rightW[pairs[i].y] += pairs[i].w
		}
		for i := 0; i < n-1; i++ {
			leftW[pairs[i].y] += pairs[i].w
			rightW[pairs[i].y] -= pairs[i].w
			if pairs[i].v == pairs[i+1].v {
				continue
			}
			lc, lw := argmaxWeight(leftW)
			rc, rw := argmaxWeight(rightW)
			var total float64
			for c := 0; c < k; c++ {
				total += leftW[c] + rightW[c]
			}
			errW := total - lw - rw
			if errW < bestErr {
				bestErr = errW
				best = stump{
					feature:   f,
					threshold: (pairs[i].v + pairs[i+1].v) / 2,
					classLeft: lc, classRight: rc,
				}
			}
		}
	}
	if math.IsInf(bestErr, 1) {
		maj := majority(y, k)
		return stump{feature: 0, threshold: math.Inf(1), classLeft: maj, classRight: maj}
	}
	return best
}

// matchesReference fits x, y both ways and reports the first round
// whose stump or alpha differs in any bit.
func matchesReference(t *testing.T, x *mathx.Matrix, y []int, rounds int) {
	t.Helper()
	e := Ensemble{Rounds: rounds}
	if err := e.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	stumps, alphas := referenceFit(x, y, rounds)
	if len(e.stumps) != len(stumps) || len(e.alphas) != len(alphas) {
		t.Fatalf("%d stumps, %d alphas; reference has %d, %d", len(e.stumps), len(e.alphas), len(stumps), len(alphas))
	}
	for r, want := range stumps {
		got := e.stumps[r]
		if got.feature != want.feature || got.classLeft != want.classLeft || got.classRight != want.classRight ||
			math.Float64bits(got.threshold) != math.Float64bits(want.threshold) {
			t.Fatalf("round %d: stump %+v, reference %+v", r, got, want)
		}
		if g, w := math.Float64bits(e.alphas[r]), math.Float64bits(alphas[r]); g != w {
			t.Fatalf("round %d: alpha %#x, reference %#x", r, g, w)
		}
	}
}

// tieVals is a small palette of feature values, -0 included, so most
// columns hold long runs of ties.
var tieVals = []float64{math.Copysign(0, -1), 0.125, 0.25, 0.5, 1, 3}

func TestPresortedFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 60; trial++ {
		n, d, k := 2+rng.Intn(80), 1+rng.Intn(12), 2+rng.Intn(5)
		x, y := tieHeavy(rng, n, d, k, 0.7, tieVals[:2+rng.Intn(len(tieVals)-1)])
		matchesReference(t, x, y, 1+rng.Intn(40))
	}
	for _, rows := range []int{100, 300} {
		x, y := e09Shape(rows)
		matchesReference(t, x, y, 40)
	}
}

// FuzzFitMatchesReference fits fuzzer-chosen tie-heavy data both ways.
// Each data byte picks a cell value (mostly 0) or a label.
func FuzzFitMatchesReference(f *testing.F) {
	f.Add(uint8(12), uint8(3), uint8(3), uint8(10), []byte{0, 0, 200, 7, 0, 250, 1, 2, 0, 0, 190, 3})
	f.Add(uint8(40), uint8(6), uint8(1), uint8(40), []byte("tie-heavy sparse columns"))
	f.Fuzz(func(t *testing.T, rows, cols, classes, rounds uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		n, d, k := 1+int(rows)%64, 1+int(cols)%10, 2+int(classes)%5
		palette := append([]float64{math.Inf(-1), math.Inf(1), math.NaN()}, tieVals...)
		next := 0
		byteAt := func() byte {
			b := data[next%len(data)]
			next++
			return b
		}
		x := mathx.NewMatrix(n, d)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				if b := byteAt(); b >= 180 {
					x.Set(i, j, palette[int(b)%len(palette)])
				}
			}
			y[i] = int(byteAt()) % k
		}
		matchesReference(t, x, y, 1+int(rounds)%40)
	})
}
