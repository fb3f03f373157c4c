// Package nmf implements Non-negative Matrix Factorization with
// multiplicative updates (Lee & Seung), the topic-extraction technique
// the paper selects over LDA and HDP for its TF-IDF keyword analysis
// (§II-C) and for the topic-uniqueness study of Figure 14.
package nmf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sdnbugs/internal/mathx"
)

// Errors returned by Factorize.
var (
	ErrBadRank     = errors.New("nmf: rank must be >= 1")
	ErrNegativeX   = errors.New("nmf: input matrix must be non-negative")
	ErrEmptyMatrix = errors.New("nmf: input matrix is empty")
)

const eps = 1e-12

// tol stops the updates early when the relative reconstruction-error
// improvement drops below it.
const tol = 1e-4

// Config controls the factorization.
type Config struct {
	// Rank is the number of topics (columns of W).
	Rank int
	// MaxIter bounds the multiplicative-update iterations (default 200).
	MaxIter int
	// Seed initializes W and H deterministically.
	Seed int64
}

// Model is a fitted factorization X ≈ W·H with X (docs×terms),
// W (docs×rank) the document-topic weights, and H (rank×terms) the
// topic-term weights.
type Model struct {
	W, H *mathx.Matrix
	// Errors holds the Frobenius reconstruction error after every
	// iteration; it is non-increasing (within numerical tolerance).
	Errors []float64
}

// Factorize runs NMF on x.
func Factorize(x *mathx.Matrix, cfg Config) (*Model, error) {
	if cfg.Rank < 1 {
		return nil, ErrBadRank
	}
	n, m := x.Rows(), x.Cols()
	if n == 0 || m == 0 {
		return nil, ErrEmptyMatrix
	}
	for i := 0; i < n; i++ {
		for _, v := range x.Row(i) {
			if v < 0 {
				return nil, ErrNegativeX
			}
		}
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 200
	}
	k := cfg.Rank

	rng := rand.New(rand.NewSource(cfg.Seed))
	w := mathx.NewMatrix(n, k)
	h := mathx.NewMatrix(k, m)
	scale := meanValue(x)
	if scale <= 0 {
		scale = 1
	}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			w.Set(i, j, rng.Float64()*scale+eps)
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < m; j++ {
			h.Set(i, j, rng.Float64()*scale+eps)
		}
	}

	model := &Model{W: w, H: h}
	prevErr := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		// H <- H .* (WᵀX) ./ (WᵀWH)
		wt := w.T()
		wtx, err := mathx.Mul(wt, x)
		if err != nil {
			return nil, fmt.Errorf("nmf: %w", err)
		}
		wtw, err := mathx.Mul(wt, w)
		if err != nil {
			return nil, fmt.Errorf("nmf: %w", err)
		}
		wtwh, err := mathx.Mul(wtw, h)
		if err != nil {
			return nil, fmt.Errorf("nmf: %w", err)
		}
		for i := 0; i < k; i++ {
			hr, nr, dr := h.Row(i), wtx.Row(i), wtwh.Row(i)
			for j := range hr {
				hr[j] *= nr[j] / (dr[j] + eps)
			}
		}
		// W <- W .* (XHᵀ) ./ (WHHᵀ)
		ht := h.T()
		xht, err := mathx.Mul(x, ht)
		if err != nil {
			return nil, fmt.Errorf("nmf: %w", err)
		}
		hht, err := mathx.Mul(h, ht)
		if err != nil {
			return nil, fmt.Errorf("nmf: %w", err)
		}
		whht, err := mathx.Mul(w, hht)
		if err != nil {
			return nil, fmt.Errorf("nmf: %w", err)
		}
		for i := 0; i < n; i++ {
			wr, nr, dr := w.Row(i), xht.Row(i), whht.Row(i)
			for j := range wr {
				wr[j] *= nr[j] / (dr[j] + eps)
			}
		}
		e := reconstructionError(x, w, h)
		model.Errors = append(model.Errors, e)
		if prevErr < math.Inf(1) && prevErr-e < tol*prevErr {
			break
		}
		prevErr = e
	}
	return model, nil
}

func meanValue(x *mathx.Matrix) float64 {
	var s float64
	n := x.Rows() * x.Cols()
	for i := 0; i < x.Rows(); i++ {
		for _, v := range x.Row(i) {
			s += v
		}
	}
	return s / float64(n)
}

func reconstructionError(x, w, h *mathx.Matrix) float64 {
	wh, err := mathx.Mul(w, h)
	if err != nil {
		return math.Inf(1)
	}
	var s float64
	for i := 0; i < x.Rows(); i++ {
		xr, wr := x.Row(i), wh.Row(i)
		for j := range xr {
			d := xr[j] - wr[j]
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// TopicTerms returns, for topic t, the indices of the k terms with the
// largest weight in H.
func (m *Model) TopicTerms(topic, k int) ([]int, error) {
	if topic < 0 || topic >= m.H.Rows() {
		return nil, fmt.Errorf("nmf: topic %d out of range [0,%d)", topic, m.H.Rows())
	}
	row := m.H.Row(topic)
	idx := make([]int, len(row))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if row[idx[a]] != row[idx[b]] {
			return row[idx[a]] > row[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k], nil
}

// DominantTopic returns the topic with the highest weight for document
// row d of W.
func (m *Model) DominantTopic(d int) (int, error) {
	if d < 0 || d >= m.W.Rows() {
		return 0, fmt.Errorf("nmf: document %d out of range [0,%d)", d, m.W.Rows())
	}
	return mathx.ArgMax(m.W.Row(d)), nil
}
