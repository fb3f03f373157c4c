// Package lda implements Latent Dirichlet Allocation with collapsed
// Gibbs sampling — one of the three keyword-extraction approaches the
// paper weighed (§II-C: LDA, HDP, and the NMF/TF-IDF route it chose).
// It exists so the NMF-vs-LDA choice can be evaluated as an ablation
// rather than taken on faith.
package lda

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Errors returned by Fit.
var (
	ErrNoDocs  = errors.New("lda: empty corpus")
	ErrBadRank = errors.New("lda: topics must be >= 1")
)

// beta is the topic-word Dirichlet prior. The document-topic prior
// alpha is 50/Topics.
const beta = 0.01

// Config controls training.
type Config struct {
	// Topics is the number of latent topics.
	Topics int
	// Iterations of Gibbs sweeps (default 150).
	Iterations int
	// Seed makes sampling deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Iterations <= 0 {
		c.Iterations = 150
	}
	return c
}

// Model is a fitted LDA model.
type Model struct {
	topics int
	vocab  map[string]int
	words  []string

	// docTopic[d][k] = tokens of doc d assigned to topic k.
	docTopic [][]int
	// topicWord[k][w] = tokens of word w assigned to topic k.
	topicWord [][]int
	// topicTotal[k] = total tokens on topic k.
	topicTotal []int
	// docLen[d] = tokens in doc d.
	docLen []int
}

// Fit runs collapsed Gibbs sampling over tokenized documents.
func Fit(docs [][]string, cfg Config) (*Model, error) {
	if cfg.Topics < 1 {
		return nil, ErrBadRank
	}
	cfg = cfg.withDefaults()
	if len(docs) == 0 {
		return nil, ErrNoDocs
	}
	m := &Model{topics: cfg.Topics, vocab: map[string]int{}}
	type tok struct{ doc, word int }
	var tokens []tok
	for d, doc := range docs {
		for _, w := range doc {
			id, ok := m.vocab[w]
			if !ok {
				id = len(m.words)
				m.vocab[w] = id
				m.words = append(m.words, w)
			}
			tokens = append(tokens, tok{d, id})
		}
	}
	if len(tokens) == 0 {
		return nil, ErrNoDocs
	}
	v := len(m.words)
	k := cfg.Topics
	m.docTopic = make([][]int, len(docs))
	m.docLen = make([]int, len(docs))
	for d := range m.docTopic {
		m.docTopic[d] = make([]int, k)
	}
	m.topicWord = make([][]int, k)
	for t := range m.topicWord {
		m.topicWord[t] = make([]int, v)
	}
	m.topicTotal = make([]int, k)

	rng := rand.New(rand.NewSource(cfg.Seed))
	assign := make([]int, len(tokens))
	for i, tk := range tokens {
		z := rng.Intn(k)
		assign[i] = z
		m.docTopic[tk.doc][z]++
		m.topicWord[z][tk.word]++
		m.topicTotal[z]++
		m.docLen[tk.doc]++
	}

	alpha := 50 / float64(k)
	probs := make([]float64, k)
	for it := 0; it < cfg.Iterations; it++ {
		for i, tk := range tokens {
			z := assign[i]
			// Remove the token's current assignment.
			m.docTopic[tk.doc][z]--
			m.topicWord[z][tk.word]--
			m.topicTotal[z]--
			// Sample a new topic from the collapsed conditional.
			var total float64
			for t := 0; t < k; t++ {
				p := (float64(m.docTopic[tk.doc][t]) + alpha) *
					(float64(m.topicWord[t][tk.word]) + beta) /
					(float64(m.topicTotal[t]) + beta*float64(v))
				probs[t] = p
				total += p
			}
			r := rng.Float64() * total
			z = k - 1
			for t := 0; t < k; t++ {
				r -= probs[t]
				if r < 0 {
					z = t
					break
				}
			}
			assign[i] = z
			m.docTopic[tk.doc][z]++
			m.topicWord[z][tk.word]++
			m.topicTotal[z]++
		}
	}
	return m, nil
}

// Topics returns the number of topics.
func (m *Model) Topics() int { return m.topics }

// VocabSize returns the vocabulary size.
func (m *Model) VocabSize() int { return len(m.words) }

// DocTopics returns the topic distribution of document d.
func (m *Model) DocTopics(d int) ([]float64, error) {
	if d < 0 || d >= len(m.docTopic) {
		return nil, fmt.Errorf("lda: document %d out of range [0,%d)", d, len(m.docTopic))
	}
	out := make([]float64, m.topics)
	n := float64(m.docLen[d])
	if n == 0 {
		return out, nil
	}
	for t, c := range m.docTopic[d] {
		out[t] = float64(c) / n
	}
	return out, nil
}

// DominantTopic returns the most probable topic for document d.
func (m *Model) DominantTopic(d int) (int, error) {
	dist, err := m.DocTopics(d)
	if err != nil {
		return 0, err
	}
	best := 0
	for t, p := range dist {
		if p > dist[best] {
			best = t
		}
	}
	return best, nil
}

// TopWords returns topic t's k most probable words.
func (m *Model) TopWords(topic, k int) ([]string, error) {
	if topic < 0 || topic >= m.topics {
		return nil, fmt.Errorf("lda: topic %d out of range [0,%d)", topic, m.topics)
	}
	idx := make([]int, len(m.words))
	for i := range idx {
		idx[i] = i
	}
	counts := m.topicWord[topic]
	sort.Slice(idx, func(a, b int) bool {
		if counts[idx[a]] != counts[idx[b]] {
			return counts[idx[a]] > counts[idx[b]]
		}
		return m.words[idx[a]] < m.words[idx[b]]
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = m.words[idx[i]]
	}
	return out, nil
}
