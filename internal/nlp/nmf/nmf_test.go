package nmf

import (
	"math"
	"testing"

	"sdnbugs/internal/mathx"
)

// blockMatrix builds a 6x6 matrix with two obvious "topics": docs 0-2
// use terms 0-2, docs 3-5 use terms 3-5.
func blockMatrix() *mathx.Matrix {
	m := mathx.NewMatrix(6, 6)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, 1+float64((i+j)%2))
		}
	}
	for i := 3; i < 6; i++ {
		for j := 3; j < 6; j++ {
			m.Set(i, j, 1+float64((i+j)%2))
		}
	}
	return m
}

func TestFactorizeErrors(t *testing.T) {
	x := blockMatrix()
	if _, err := Factorize(x, Config{Rank: 0}); err != ErrBadRank {
		t.Errorf("want ErrBadRank, got %v", err)
	}
	if _, err := Factorize(mathx.NewMatrix(0, 0), Config{Rank: 2}); err != ErrEmptyMatrix {
		t.Errorf("want ErrEmptyMatrix, got %v", err)
	}
	neg := mathx.NewMatrix(2, 2)
	neg.Set(0, 0, -1)
	if _, err := Factorize(neg, Config{Rank: 1}); err != ErrNegativeX {
		t.Errorf("want ErrNegativeX, got %v", err)
	}
}

func TestFactorsStayNonNegative(t *testing.T) {
	model, err := Factorize(blockMatrix(), Config{Rank: 2, Seed: 7, MaxIter: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < model.W.Rows(); i++ {
		for _, v := range model.W.Row(i) {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("W has invalid entry %v", v)
			}
		}
	}
	for i := 0; i < model.H.Rows(); i++ {
		for _, v := range model.H.Row(i) {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("H has invalid entry %v", v)
			}
		}
	}
}

func TestErrorNonIncreasing(t *testing.T) {
	model, err := Factorize(blockMatrix(), Config{Rank: 2, Seed: 3, MaxIter: 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Errors) < 2 {
		t.Fatalf("too few iterations recorded: %d", len(model.Errors))
	}
	for i := 1; i < len(model.Errors); i++ {
		if model.Errors[i] > model.Errors[i-1]*(1+1e-9) {
			t.Errorf("error increased at iter %d: %v -> %v", i, model.Errors[i-1], model.Errors[i])
		}
	}
}

func TestRecoverBlockStructure(t *testing.T) {
	model, err := Factorize(blockMatrix(), Config{Rank: 2, Seed: 11, MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	// All docs in the same block must share a dominant topic, and the
	// two blocks must differ.
	t0, err := model.DominantTopic(0)
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d < 3; d++ {
		td, _ := model.DominantTopic(d)
		if td != t0 {
			t.Errorf("doc %d topic %d, want %d", d, td, t0)
		}
	}
	t3, _ := model.DominantTopic(3)
	if t3 == t0 {
		t.Error("blocks should map to different topics")
	}
	for d := 4; d < 6; d++ {
		td, _ := model.DominantTopic(d)
		if td != t3 {
			t.Errorf("doc %d topic %d, want %d", d, td, t3)
		}
	}
}

func TestTopicTerms(t *testing.T) {
	model, err := Factorize(blockMatrix(), Config{Rank: 2, Seed: 11, MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	t0, _ := model.DominantTopic(0)
	terms, err := model.TopicTerms(t0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The first block's topic must be dominated by terms 0-2.
	for _, idx := range terms {
		if idx > 2 {
			t.Errorf("topic term %d outside block 0-2 (terms=%v)", idx, terms)
		}
	}
	if _, err := model.TopicTerms(99, 3); err == nil {
		t.Error("want out-of-range error")
	}
	all, _ := model.TopicTerms(t0, 100)
	if len(all) != 6 {
		t.Errorf("k overflow: %d", len(all))
	}
}

func TestDominantTopicRange(t *testing.T) {
	model, err := Factorize(blockMatrix(), Config{Rank: 2, Seed: 1, MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.DominantTopic(-1); err == nil {
		t.Error("want error for negative doc")
	}
	if _, err := model.DominantTopic(100); err == nil {
		t.Error("want error for doc out of range")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, err := Factorize(blockMatrix(), Config{Rank: 2, Seed: 5, MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Factorize(blockMatrix(), Config{Rank: 2, Seed: 5, MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.Equal(a.W, b.W, 0) || !mathx.Equal(a.H, b.H, 0) {
		t.Error("same seed should reproduce identical factors")
	}
}
