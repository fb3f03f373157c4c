package nlp

import (
	"sync"
	"sync/atomic"

	"sdnbugs/internal/metrics"
)

// The training pipeline re-preprocesses the same small corpus dozens
// of times — every validation repeat, every ablation variant, every
// batch prediction walks the same ~150 bug reports — so stemming and
// preprocessing are memoized behind bounded, concurrency-safe caches.
// Both caches memoize pure functions: a hit returns exactly what the
// miss path would have computed, so caching is invisible to results
// (and to determinism) and only changes how fast they arrive.
//
// The bound is enforced by refusing inserts once full rather than by
// evicting: eviction buys nothing for a workload whose key space (a
// fixed corpus vocabulary) is small and stable, and skipping it keeps
// the fast path to one atomic load + one map read. Every refused
// insert is counted (CacheRefusals), so a workload that outgrows a
// limit shows it instead of silently losing its memo.

// memoCache is a bounded concurrent memo table.
type memoCache[V any] struct {
	limit   int
	size    atomic.Int64
	m       sync.Map // string -> V
	refused metrics.Counter
}

func (c *memoCache[V]) get(key string) (V, bool) {
	v, ok := c.m.Load(key)
	if !ok {
		var zero V
		return zero, false
	}
	return v.(V), true
}

func (c *memoCache[V]) put(key string, v V) {
	if c.size.Load() >= int64(c.limit) {
		c.refused.Inc()
		return
	}
	if _, loaded := c.m.LoadOrStore(key, v); !loaded {
		// Concurrent inserts may overshoot the limit by at most the
		// number of racing goroutines; the bound is a memory guard,
		// not an exact count.
		c.size.Add(1)
	}
}

const (
	// stemCacheLimit comfortably covers the corpus vocabulary
	// (a few thousand distinct tokens) with room for real-world text.
	stemCacheLimit = 1 << 16
	// preprocessCacheLimit covers the full 795-issue corpus plus
	// ablation variants; entries are token slices, so the cap keeps
	// worst-case memory in the tens of megabytes.
	preprocessCacheLimit = 1 << 12
)

var (
	stemCache       = memoCache[string]{limit: stemCacheLimit}
	preprocessCache = memoCache[[]string]{limit: preprocessCacheLimit}
)

// CacheRefusals returns how many inserts the stem and preprocess memo
// caches refused because they were full.
func CacheRefusals() (stem, preprocess uint64) {
	return stemCache.refused.Value(), preprocessCache.refused.Value()
}

// CachedStem is Stem behind the bounded memo table. Porter stemming
// is pure, so the cache can be global: the same token always maps to
// the same stem.
func CachedStem(word string) string {
	if s, ok := stemCache.get(word); ok {
		return s
	}
	s := Stem(word)
	stemCache.put(word, s)
	return s
}

// Preprocess runs the full pipeline the paper's NLP stage uses:
// tokenize, drop stop-words, stem. Results are memoized per input
// text (bounded, concurrency-safe); callers receive a fresh slice
// they may modify.
func Preprocess(text string) []string {
	if toks, ok := preprocessCache.get(text); ok {
		out := make([]string, len(toks))
		copy(out, toks)
		return out
	}
	toks := preprocessUncached(text)
	cached := make([]string, len(toks))
	copy(cached, toks)
	preprocessCache.put(text, cached)
	return toks
}

func preprocessUncached(text string) []string {
	var tk Tokenizer
	toks := RemoveStopwords(tk.Tokenize(text))
	for i, t := range toks {
		toks[i] = CachedStem(t)
	}
	return toks
}
