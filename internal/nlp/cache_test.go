package nlp

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestCachedStemMatchesStem(t *testing.T) {
	words := []string{"running", "caresses", "ponies", "controller",
		"flapping", "ipv6", "a", "relational", "hopefulness"}
	for _, w := range words {
		if got, want := CachedStem(w), Stem(w); got != want {
			t.Errorf("CachedStem(%q) = %q, want %q", w, got, want)
		}
		// Second lookup hits the cache and must agree.
		if got, want := CachedStem(w), Stem(w); got != want {
			t.Errorf("cached CachedStem(%q) = %q, want %q", w, got, want)
		}
	}
}

func TestPreprocessCacheTransparent(t *testing.T) {
	text := "The controller crashes after the config reload fails repeatedly"
	first := Preprocess(text)
	if want := preprocessUncached(text); !reflect.DeepEqual(first, want) {
		t.Fatalf("Preprocess = %v, want %v", first, want)
	}
	second := Preprocess(text)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cache hit %v differs from miss %v", second, first)
	}
	// Callers own the returned slice: mutating one result must not
	// leak into later calls.
	if len(second) > 0 {
		second[0] = "mutated"
	}
	third := Preprocess(text)
	if !reflect.DeepEqual(first, third) {
		t.Fatalf("mutation leaked into cache: %v vs %v", third, first)
	}
}

func TestPreprocessCacheConcurrent(t *testing.T) {
	texts := make([]string, 32)
	for i := range texts {
		texts[i] = fmt.Sprintf("switch %d dropped the link and the flow table diverged badly", i)
	}
	want := make([][]string, len(texts))
	for i, txt := range texts {
		want[i] = preprocessUncached(txt)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, txt := range texts {
				if got := Preprocess(txt); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("concurrent Preprocess(%q) = %v, want %v", txt, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMemoCacheBound(t *testing.T) {
	c := memoCache[string]{limit: 4}
	for i := 0; i < 10; i++ {
		c.put(fmt.Sprintf("k%d", i), "v")
	}
	if n := c.size.Load(); n > 4 {
		t.Errorf("cache grew to %d entries, limit 4", n)
	}
	// Entries beyond the bound are simply not cached — lookups miss,
	// which is correct (the caller recomputes) rather than wrong.
	if _, ok := c.get("k9"); ok {
		t.Error("entry past the bound should not have been stored")
	}
	if _, ok := c.get("k0"); !ok {
		t.Error("entry within the bound should be retained")
	}
}

// Each memo cache stops inserting at its limit and counts every insert
// it refuses; a refused key stays a miss.
func TestMemoCacheCountsRefusedInserts(t *testing.T) {
	const past = 3
	stems := memoCache[string]{limit: stemCacheLimit}
	for i := 0; i < stemCacheLimit+past; i++ {
		stems.put(fmt.Sprintf("w%d", i), "s")
	}
	if got := stems.refused.Value(); got != past {
		t.Fatalf("stem cache refused %d inserts past its limit of %d, want %d", got, stemCacheLimit, past)
	}
	if _, ok := stems.get(fmt.Sprintf("w%d", stemCacheLimit)); ok {
		t.Fatal("a refused stem was cached")
	}
	texts := memoCache[[]string]{limit: preprocessCacheLimit}
	for i := 0; i < preprocessCacheLimit+past; i++ {
		texts.put(fmt.Sprintf("text %d", i), nil)
	}
	if got := texts.refused.Value(); got != past {
		t.Fatalf("preprocess cache refused %d inserts past its limit of %d, want %d", got, preprocessCacheLimit, past)
	}
	if n := texts.size.Load(); n != preprocessCacheLimit {
		t.Fatalf("preprocess cache holds %d entries, want its limit %d", n, preprocessCacheLimit)
	}
}
