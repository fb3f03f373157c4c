// Package word2vec implements skip-gram Word2Vec with negative sampling
// (Mikolov et al.), the embedding technique the paper's NLP stage uses
// to map bug descriptions into a Euclidean space (§II-C).
package word2vec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sdnbugs/internal/mathx"
)

// Errors returned by Train and the model accessors.
var (
	ErrNoCorpus   = errors.New("word2vec: empty corpus")
	ErrNotInVocab = errors.New("word2vec: word not in vocabulary")
)

// Training constants. Every word of the corpus is in the vocabulary.
const (
	// window is the max context distance.
	window = 4
	// negative is the number of negative samples per positive.
	negative = 5
	// learningRate is the initial SGD step, decayed linearly to 1e-4
	// of itself across training.
	learningRate = 0.025
)

// Config controls training.
type Config struct {
	// Dim is the embedding dimensionality (default 50).
	Dim int
	// Epochs over the corpus (default 5).
	Epochs int
	// Seed makes training deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 50
	}
	if c.Epochs <= 0 {
		c.Epochs = 5
	}
	return c
}

// Model holds trained embeddings.
type Model struct {
	dim    int
	vocab  map[string]int
	words  []string
	in     []float64 // input vectors, len = |vocab| * dim
	counts []int
}

// Train fits embeddings on sentences (each a token slice).
func Train(sentences [][]string, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(sentences) == 0 {
		return nil, ErrNoCorpus
	}
	counts := map[string]int{}
	total := 0
	for _, s := range sentences {
		for _, w := range s {
			counts[w]++
			total++
		}
	}
	if total == 0 {
		return nil, ErrNoCorpus
	}
	type wc struct {
		w string
		c int
	}
	kept := make([]wc, 0, len(counts))
	for w, c := range counts {
		kept = append(kept, wc{w, c})
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].c != kept[j].c {
			return kept[i].c > kept[j].c
		}
		return kept[i].w < kept[j].w
	})
	m := &Model{
		dim:   cfg.Dim,
		vocab: make(map[string]int, len(kept)),
		words: make([]string, len(kept)),
	}
	m.counts = make([]int, len(kept))
	for i, k := range kept {
		m.vocab[k.w] = i
		m.words[i] = k.w
		m.counts[i] = k.c
	}
	v := len(kept)
	rng := rand.New(rand.NewSource(cfg.Seed))
	m.in = make([]float64, v*cfg.Dim)
	out := make([]float64, v*cfg.Dim)
	for i := range m.in {
		m.in[i] = (rng.Float64() - 0.5) / float64(cfg.Dim)
	}

	// Unigram^0.75 table for negative sampling.
	negTable := buildNegTable(m.counts, 1<<16)

	// Encode corpus as vocabulary ids.
	ids := make([][]int, 0, len(sentences))
	for _, s := range sentences {
		if len(s) == 0 {
			continue
		}
		row := make([]int, len(s))
		for i, w := range s {
			row[i] = m.vocab[w]
		}
		ids = append(ids, row)
	}

	// Single-threaded SGD: one RNG stream (continuing from vector
	// initialization), tokens visited in corpus order, so a fixed Seed
	// reproduces the model byte for byte.
	steps := cfg.Epochs * total
	step := 0
	grad := make([]float64, cfg.Dim)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		step = trainSpan(cfg, m.in, out, ids, negTable, rng, step, steps, grad)
	}
	return m, nil
}

// trainSpan runs one SGD pass over sents against the given weight
// slices, starting at global step `step` of `steps`, and returns the
// advanced step counter.
func trainSpan(cfg Config, in, out []float64, sents [][]int, negTable []int, rng *rand.Rand, step, steps int, grad []float64) int {
	for _, sent := range sents {
		for pos, center := range sent {
			step++
			lr := learningRate * (1 - float64(step)/float64(steps+1))
			if lr < learningRate*1e-4 {
				lr = learningRate * 1e-4
			}
			win := 1 + rng.Intn(window)
			for off := -win; off <= win; off++ {
				cpos := pos + off
				if off == 0 || cpos < 0 || cpos >= len(sent) {
					continue
				}
				ctx := sent[cpos]
				inVec := in[center*cfg.Dim : (center+1)*cfg.Dim]
				mathx.Fill(grad, 0)
				// Positive sample + negatives.
				for s := 0; s <= negative; s++ {
					var target int
					var label float64
					if s == 0 {
						target, label = ctx, 1
					} else {
						target = negTable[rng.Intn(len(negTable))]
						if target == ctx {
							continue
						}
						label = 0
					}
					outVec := out[target*cfg.Dim : (target+1)*cfg.Dim]
					score := sigmoid(mathx.Dot(inVec, outVec))
					g := lr * (label - score)
					mathx.Axpy(g, outVec, grad)
					mathx.Axpy(g, inVec, outVec)
				}
				for i := range inVec {
					inVec[i] += grad[i]
				}
			}
		}
	}
	return step
}

func sigmoid(x float64) float64 {
	if x > 8 {
		return 1
	}
	if x < -8 {
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

func buildNegTable(counts []int, size int) []int {
	var z float64
	pows := make([]float64, len(counts))
	for i, c := range counts {
		pows[i] = math.Pow(float64(c), 0.75)
		z += pows[i]
	}
	table := make([]int, 0, size)
	for i, p := range pows {
		n := int(p / z * float64(size))
		if n < 1 {
			n = 1
		}
		for j := 0; j < n; j++ {
			table = append(table, i)
		}
	}
	return table
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.dim }

// VocabSize returns the vocabulary size.
func (m *Model) VocabSize() int { return len(m.words) }

// Vector returns the embedding of word (a view; callers must not
// modify), or ErrNotInVocab.
func (m *Model) Vector(word string) ([]float64, error) {
	id, ok := m.vocab[word]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotInVocab, word)
	}
	return m.in[id*m.dim : (id+1)*m.dim], nil
}

// Similarity returns the cosine similarity of two words' embeddings.
func (m *Model) Similarity(a, b string) (float64, error) {
	va, err := m.Vector(a)
	if err != nil {
		return 0, err
	}
	vb, err := m.Vector(b)
	if err != nil {
		return 0, err
	}
	return mathx.CosineSimilarity(va, vb), nil
}

// MostSimilar returns up to k vocabulary words most similar to word,
// excluding the word itself.
func (m *Model) MostSimilar(word string, k int) ([]string, error) {
	v, err := m.Vector(word)
	if err != nil {
		return nil, err
	}
	type ws struct {
		w string
		s float64
	}
	sims := make([]ws, 0, len(m.words))
	for _, other := range m.words {
		if other == word {
			continue
		}
		ov, _ := m.Vector(other)
		sims = append(sims, ws{other, mathx.CosineSimilarity(v, ov)})
	}
	sort.Slice(sims, func(i, j int) bool {
		if sims[i].s != sims[j].s {
			return sims[i].s > sims[j].s
		}
		return sims[i].w < sims[j].w
	})
	if k > len(sims) {
		k = len(sims)
	}
	outWords := make([]string, k)
	for i := 0; i < k; i++ {
		outWords[i] = sims[i].w
	}
	return outWords, nil
}

// DocVector returns the mean of the embeddings of the document's
// in-vocabulary tokens — the paper's document-to-Euclidean-space map.
// An all-OOV document maps to the zero vector.
func (m *Model) DocVector(tokens []string) []float64 {
	vec := make([]float64, m.dim)
	var n int
	for _, t := range tokens {
		if id, ok := m.vocab[t]; ok {
			mathx.Axpy(1, m.in[id*m.dim:(id+1)*m.dim], vec)
			n++
		}
	}
	if n > 0 {
		mathx.Scale(vec, 1/float64(n))
	}
	return vec
}
