package word2vec

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"sdnbugs/internal/mathx"
)

// syntheticCorpus builds sentences from two disjoint topic clusters so
// that within-cluster words co-occur and across-cluster words never do.
func syntheticCorpus(n int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	clusterA := []string{"crash", "exception", "nullpointer", "stacktrace", "restart"}
	clusterB := []string{"flow", "packet", "switch", "port", "openflow"}
	var out [][]string
	for i := 0; i < n; i++ {
		var pool []string
		if i%2 == 0 {
			pool = clusterA
		} else {
			pool = clusterB
		}
		sent := make([]string, 8)
		for j := range sent {
			sent[j] = pool[rng.Intn(len(pool))]
		}
		out = append(out, sent)
	}
	return out
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Config{}); !errors.Is(err, ErrNoCorpus) {
		t.Errorf("want ErrNoCorpus, got %v", err)
	}
	if _, err := Train([][]string{{}}, Config{}); !errors.Is(err, ErrNoCorpus) {
		t.Errorf("want ErrNoCorpus for empty sentences, got %v", err)
	}
}

func TestVocabAndVector(t *testing.T) {
	m, err := Train(syntheticCorpus(50, 1), Config{Dim: 16, Epochs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.VocabSize() != 10 {
		t.Errorf("vocab = %d, want 10", m.VocabSize())
	}
	if m.Dim() != 16 {
		t.Errorf("dim = %d", m.Dim())
	}
	v, err := m.Vector("crash")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 16 || !mathx.AllFinite(v) {
		t.Errorf("bad vector: %v", v)
	}
	if _, err := m.Vector("nosuchword"); !errors.Is(err, ErrNotInVocab) {
		t.Errorf("want ErrNotInVocab, got %v", err)
	}
}

func TestClusterSimilarityStructure(t *testing.T) {
	m, err := Train(syntheticCorpus(400, 2), Config{Dim: 24, Epochs: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	within, err := m.Similarity("crash", "exception")
	if err != nil {
		t.Fatal(err)
	}
	across, err := m.Similarity("crash", "packet")
	if err != nil {
		t.Fatal(err)
	}
	if !(within > across) {
		t.Errorf("within-cluster similarity %v should exceed across-cluster %v", within, across)
	}
}

func TestMostSimilar(t *testing.T) {
	m, err := Train(syntheticCorpus(400, 3), Config{Dim: 24, Epochs: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	top, err := m.MostSimilar("flow", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 {
		t.Fatalf("got %d words", len(top))
	}
	clusterB := map[string]bool{"packet": true, "switch": true, "port": true, "openflow": true}
	hits := 0
	for _, w := range top {
		if w == "flow" {
			t.Error("MostSimilar must exclude the query word")
		}
		if clusterB[w] {
			hits++
		}
	}
	if hits < 3 {
		t.Errorf("only %d of top-4 neighbours of 'flow' are in its cluster: %v", hits, top)
	}
	if _, err := m.MostSimilar("absent", 3); !errors.Is(err, ErrNotInVocab) {
		t.Errorf("want ErrNotInVocab, got %v", err)
	}
	all, _ := m.MostSimilar("flow", 100)
	if len(all) != m.VocabSize()-1 {
		t.Errorf("k overflow: %d", len(all))
	}
}

func TestDocVector(t *testing.T) {
	m, err := Train(syntheticCorpus(100, 4), Config{Dim: 8, Epochs: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dv := m.DocVector([]string{"crash", "exception", "oovword"})
	if len(dv) != 8 || !mathx.AllFinite(dv) {
		t.Fatalf("bad doc vector %v", dv)
	}
	// Mean of single word == that word's vector.
	single := m.DocVector([]string{"crash"})
	wv, _ := m.Vector("crash")
	for i := range single {
		if math.Abs(single[i]-wv[i]) > 1e-12 {
			t.Fatal("single-token doc vector should equal the word vector")
		}
	}
	// All-OOV doc -> zero vector.
	zero := m.DocVector([]string{"xyz"})
	if mathx.Norm2(zero) != 0 {
		t.Error("OOV doc should be zero vector")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	c := syntheticCorpus(60, 5)
	m1, err := Train(c, Config{Dim: 12, Epochs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(c, Config{Dim: 12, Epochs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := m1.Vector("crash")
	v2, _ := m2.Vector("crash")
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("same seed should reproduce identical embeddings")
		}
	}
}

func TestMinCount(t *testing.T) {
	sents := [][]string{
		{"common", "common", "common", "rare"},
		{"common", "common"},
	}
	m, err := Train(sents, Config{Dim: 4, Epochs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The minimum count is 1: a word seen once is in the vocabulary.
	if m.VocabSize() != 2 {
		t.Errorf("vocab = %d, want 2", m.VocabSize())
	}
	for _, w := range []string{"common", "rare"} {
		if _, err := m.Vector(w); err != nil {
			t.Errorf("%s missing: %v", w, err)
		}
	}
}

func TestLargeVocabStability(t *testing.T) {
	// Many distinct words, shallow training: vectors must stay finite.
	rng := rand.New(rand.NewSource(6))
	var sents [][]string
	for i := 0; i < 50; i++ {
		s := make([]string, 12)
		for j := range s {
			s[j] = "w" + strconv.Itoa(rng.Intn(200))
		}
		sents = append(sents, s)
	}
	m, err := Train(sents, Config{Dim: 10, Epochs: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.words {
		v, _ := m.Vector(w)
		if !mathx.AllFinite(v) {
			t.Fatalf("non-finite vector for %s", w)
		}
	}
}
