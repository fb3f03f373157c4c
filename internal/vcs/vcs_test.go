package vcs

import (
	"testing"
	"time"
)

func TestGenerateFaucetBasics(t *testing.T) {
	h := GenerateFaucet(1)
	if len(h.Commits) != 3000 {
		t.Errorf("commits = %d, want 3000", len(h.Commits))
	}
	first, last, err := h.Span()
	if err != nil {
		t.Fatal(err)
	}
	if !last.After(first) {
		t.Error("history should span time")
	}
	// Monotone timestamps.
	for i := 1; i < len(h.Commits); i++ {
		if h.Commits[i].Time.Before(h.Commits[i-1].Time) {
			t.Fatal("commits not time-ordered")
		}
	}
	// Hash, author, files populated.
	for _, c := range h.Commits[:50] {
		if c.Hash == "" || c.Author == "" || len(c.Files) == 0 {
			t.Fatalf("incomplete commit: %+v", c)
		}
	}
}

func TestGenerateFaucetBumpCounts(t *testing.T) {
	h := GenerateFaucet(2)
	counts := map[string]int{}
	for _, c := range h.Commits {
		if c.Bump != nil {
			counts[c.Bump.Dep]++
			if len(c.Files) != 1 || c.Files[0] != "requirements.txt" {
				t.Errorf("bump commit should touch requirements.txt: %v", c.Files)
			}
		}
	}
	for _, d := range FaucetDependencies() {
		if counts[d.Name] != d.Changes {
			t.Errorf("%s bumps = %d, want %d (Table IV)", d.Name, counts[d.Name], d.Changes)
		}
	}
}

func TestGenerateFaucetDeterministic(t *testing.T) {
	a := GenerateFaucet(7)
	b := GenerateFaucet(7)
	for i := range a.Commits {
		if a.Commits[i].Hash != b.Commits[i].Hash || a.Commits[i].Message != b.Commits[i].Message {
			t.Fatal("same seed should give identical history")
		}
	}
}

func TestGenerateONOS(t *testing.T) {
	counts := []int{400, 300, 200}
	h, releases, err := GenerateONOS(counts, time.Time{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(releases) != 3 {
		t.Fatalf("releases = %d", len(releases))
	}
	if len(h.Commits) != 900 {
		t.Errorf("commits = %d, want 900", len(h.Commits))
	}
	for i := 1; i < len(h.Commits); i++ {
		if h.Commits[i].Time.Before(h.Commits[i-1].Time) {
			t.Fatal("ONOS commits not time-ordered")
		}
	}
	if _, _, err := GenerateONOS(nil, time.Time{}, 1); err == nil {
		t.Error("want error for empty schedule")
	}
}

func TestSpanEmpty(t *testing.T) {
	var h History
	if _, _, err := h.Span(); err != ErrEmptyHistory {
		t.Errorf("want ErrEmptyHistory, got %v", err)
	}
}
