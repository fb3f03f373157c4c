package study

import (
	"fmt"
	"sort"

	"sdnbugs/internal/nlp/lda"
	"sdnbugs/internal/nlp/nmf"
	"sdnbugs/internal/nlp/tfidf"
	"sdnbugs/internal/taxonomy"
)

// TopicUniqueness is one category's topic-uniqueness score (Figure 14):
// how exclusively the category's bugs own their dominant NMF topics.
// A score near 1 means the category's reports read unlike any other
// category's; near 0 means its topics are shared.
type TopicUniqueness struct {
	Dimension taxonomy.Dimension
	Tag       string
	Score     float64
	Support   int
}

// topicMaxVocab caps the NMF analysis's TF-IDF vocabulary, and
// topicMinSupport skips categories with fewer bugs.
const (
	topicMaxVocab   = 400
	topicMinSupport = 5
)

// TopicConfig controls the Figure 14 analysis.
type TopicConfig struct {
	// Rank is the topic count (default 12).
	Rank int
	// Seed drives the topic model's initialization.
	Seed int64
}

func (c TopicConfig) withDefaults() TopicConfig {
	if c.Rank <= 0 {
		c.Rank = 12
	}
	return c
}

// TopicUniquenessAnalysis reproduces Figure 14: NMF topics over the
// bugs' TF-IDF matrix, a dominant topic per bug, and per category the
// exclusivity-weighted share of its dominant topics. Results are
// sorted by descending score.
func (s *Study) TopicUniquenessAnalysis(cfg TopicConfig) ([]TopicUniqueness, error) {
	cfg = cfg.withDefaults()
	docs := tokenizeAll(s.bugs)
	vec := &tfidf.Vectorizer{MaxVocab: topicMaxVocab, MinDF: 2}
	x, err := vec.FitTransform(docs)
	if err != nil {
		return nil, fmt.Errorf("study: topics tfidf: %w", err)
	}
	rank := min(cfg.Rank, vec.VocabSize())
	model, err := nmf.Factorize(x, nmf.Config{Rank: rank, Seed: cfg.Seed, MaxIter: 150})
	if err != nil {
		return nil, fmt.Errorf("study: nmf: %w", err)
	}
	return scoreUniqueness(s.bugs, model, rank)
}

// TopicUniquenessAnalysisLDA is the Figure 14 analysis computed with
// LDA topics instead of NMF — the alternative the paper considered and
// rejected (§II-C). Scores use the same exclusivity metric so the two
// models are directly comparable.
func (s *Study) TopicUniquenessAnalysisLDA(cfg TopicConfig) ([]TopicUniqueness, error) {
	cfg = cfg.withDefaults()
	docs := tokenizeAll(s.bugs)
	model, err := lda.Fit(docs, lda.Config{Topics: cfg.Rank, Seed: cfg.Seed, Iterations: 120})
	if err != nil {
		return nil, fmt.Errorf("study: lda: %w", err)
	}
	return scoreUniqueness(s.bugs, model, cfg.Rank)
}

// scoreUniqueness assigns every bug its dominant topic among rank and
// computes the exclusivity-weighted uniqueness of every category with
// at least topicMinSupport bugs: Σ_t P(t|c) · exclusivity(t,c), where
// exclusivity is the category's share of all bugs on that topic.
func scoreUniqueness(bugs []LabeledBug, model interface{ DominantTopic(int) (int, error) }, rank int) ([]TopicUniqueness, error) {
	dom := make([]int, len(bugs))
	topicTotal := make([]int, rank)
	for i := range bugs {
		t, err := model.DominantTopic(i)
		if err != nil {
			return nil, err
		}
		dom[i] = t
		topicTotal[t]++
	}
	var out []TopicUniqueness
	for _, d := range taxonomy.Dimensions() {
		for _, tag := range d.Categories() {
			counts := make([]int, rank)
			support := 0
			for i, b := range bugs {
				if b.Label.Tag(d) == tag {
					counts[dom[i]]++
					support++
				}
			}
			if support < topicMinSupport {
				continue
			}
			var score float64
			for t := range topicTotal {
				if counts[t] == 0 {
					continue
				}
				pTC := float64(counts[t]) / float64(support)
				excl := float64(counts[t]) / float64(topicTotal[t])
				score += pTC * excl
			}
			out = append(out, TopicUniqueness{Dimension: d, Tag: tag, Score: score, Support: support})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Tag < out[j].Tag
	})
	return out, nil
}
