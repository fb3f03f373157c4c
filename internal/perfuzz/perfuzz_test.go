package perfuzz

import (
	"bytes"
	"math/rand"
	"testing"

	"sdnbugs/internal/metrics"
)

// smallCfg keeps test runs fast while still exercising every stage.
func smallCfg(seed int64) Config {
	return Config{Seed: seed, Generations: 4, Population: 6, GenomeLen: 30}
}

// TestFuzzDeterministic: identical (seed, budget) must yield
// byte-identical reports — the property the shrinker and the E24
// byte-identity check build on.
func TestFuzzDeterministic(t *testing.T) {
	a, err := Fuzz(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fuzz(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same config produced different reports (%d vs %d bytes)", len(ja), len(jb))
	}
	if c, err := Fuzz(smallCfg(2)); err != nil {
		t.Fatal(err)
	} else if jc, err := c.JSON(); err != nil {
		t.Fatal(err)
	} else if bytes.Equal(ja, jc) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestFuzzFindsAndShrinks: at the suite seed the guided search must
// find degradation, and every reproducer must trigger the same class
// as its parent while never being longer (the shrink property, run
// over a couple of seeds).
func TestFuzzFindsAndShrinks(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		rep, err := Fuzz(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Guided.Degraded < 1 {
			t.Fatalf("seed %d: guided search found no degradation", seed)
		}
		if len(rep.Reproducers) == 0 {
			t.Fatalf("seed %d: no reproducers", seed)
		}
		for _, rp := range rep.Reproducers {
			if rp.Eval.Class != rp.Class {
				t.Errorf("seed %d: reproducer class drifted: want %q, got %q", seed, rp.Class, rp.Eval.Class)
			}
			if !rp.Eval.Degraded() {
				t.Errorf("seed %d: reproducer for %q no longer degrades", seed, rp.Class)
			}
			if rp.Len > rp.ParentLen {
				t.Errorf("seed %d: reproducer grew: %d > parent %d", seed, rp.Len, rp.ParentLen)
			}
			if rp.Len != len(rp.Genome) {
				t.Errorf("seed %d: reproducer Len %d != genome length %d", seed, rp.Len, len(rp.Genome))
			}
		}
	}
}

// TestShrinkRevalidatesEachStep: shrinking re-runs the harness after
// every removal, so the returned genome's own evaluation reports the
// requested class even when the parent barely triggers it.
func TestShrinkRevalidatesEachStep(t *testing.T) {
	h := NewHarness(1, nil)
	rng := rand.New(rand.NewSource(7))
	var parent Genome
	var class string
	for i := 0; i < 200 && class == ""; i++ {
		g := RandomGenome(rng, 40)
		e, err := h.Eval(g)
		if err != nil {
			t.Fatal(err)
		}
		if e.Degraded() {
			parent, class = g, e.Class
		}
	}
	if class == "" {
		t.Fatal("no degrading genome in 200 random draws")
	}
	shrunk, eval, stats, err := Shrink(parent, class, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eval.Class != class {
		t.Fatalf("shrunk class %q != parent class %q", eval.Class, class)
	}
	if len(shrunk) > len(parent) {
		t.Fatalf("shrunk genome longer than parent: %d > %d", len(shrunk), len(parent))
	}
	if stats.Evals == 0 {
		t.Fatal("shrink reported zero evaluations")
	}
	// Re-evaluating through a fresh harness must agree: eval is a
	// pure function of (seed, genome).
	again, err := NewHarness(1, nil).Eval(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if again.Class != class {
		t.Fatalf("fresh-harness replay class %q != %q", again.Class, class)
	}
}

// TestMutateInvariants: every mutation and splice keeps the genome
// runnable — non-empty, within the length cap, ops in range.
func TestMutateInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const maxLen = 96
	g := RandomGenome(rng, 40)
	for i := 0; i < 2000; i++ {
		if i%3 == 0 {
			g = Splice(rng, g, RandomGenome(rng, 1+rng.Intn(60)), maxLen)
		} else {
			g = Mutate(rng, g, maxLen)
		}
		if len(g) < 1 || len(g) > maxLen {
			t.Fatalf("step %d: length %d outside [1,%d]", i, len(g), maxLen)
		}
		for _, gene := range g {
			if gene.Op >= numOps {
				t.Fatalf("step %d: invalid op %d", i, gene.Op)
			}
		}
	}
}

// TestHarnessMemoizes: the cache answers repeat genomes without
// re-running the lab, and the metrics registry sees both.
func TestHarnessMemoizes(t *testing.T) {
	reg := metrics.NewRegistry()
	h := NewHarness(1, reg)
	g := RandomGenome(rand.New(rand.NewSource(5)), 20)
	e1, err := h.Eval(g)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := h.Eval(g)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("memoized eval differs")
	}
	if h.Evals != 2 || h.UniqueEvals != 1 {
		t.Fatalf("want 2 evals / 1 unique, got %d / %d", h.Evals, h.UniqueEvals)
	}
	if got := reg.Counter("perfuzz_evals_total").Value(); got != 2 {
		t.Fatalf("perfuzz_evals_total = %d, want 2", got)
	}
	if got := reg.Counter("perfuzz_eval_cache_hits_total").Value(); got != 1 {
		t.Fatalf("perfuzz_eval_cache_hits_total = %d, want 1", got)
	}
}

// TestFeaturizeWidth: the feature vector is fixed-width and reflects
// the schedule's op mix.
func TestFeaturizeWidth(t *testing.T) {
	g := Genome{
		{Op: OpUnicast, Gap: 2},
		{Op: OpUnicast},
		{Op: OpConfig, Gap: 1},
		{Op: OpBroadcast},
	}
	f := Featurize(g)
	if len(f) != numFeatures {
		t.Fatalf("feature width %d, want %d", len(f), numFeatures)
	}
	if f[0] != 4 || f[1] != 3 {
		t.Fatalf("length/gap features = %v/%v, want 4/3", f[0], f[1])
	}
	if f[2+int(OpUnicast)] != 2 {
		t.Fatalf("unicast count = %v, want 2", f[2+int(OpUnicast)])
	}
	// Longest traffic run: unicast, unicast — then config breaks it —
	// broadcast. Best is 2.
	if f[2+int(numOps)] != 2 {
		t.Fatalf("max traffic run = %v, want 2", f[2+int(numOps)])
	}
}

// TestLatencySummaryRounding pins latencySummary's nearest-rank rule,
// ⌊p·n+0.5⌋−1. It is not stats.ECDF.Quantile's ⌈p·n⌉−1: the two pick
// different ranks whenever frac(p·n) is in (0, 0.5), so swapping one
// for the other would change every E24 report.
func TestLatencySummaryRounding(t *testing.T) {
	costs := make([]int, 11)
	for i := range costs {
		costs[i] = 10 - i // unsorted on purpose: 10, 9, ..., 0
	}
	mean, p50, p95, p99 := latencySummary(costs)
	// n=11: p50 → ⌊6.0⌋−1 = 5; p95 → ⌊10.95⌋−1 = 9 (⌈10.45⌉−1 would
	// be 10); p99 → ⌊11.39⌋−1 = 10.
	if mean != 5 || p50 != 5 || p95 != 9 || p99 != 10 {
		t.Fatalf("latencySummary = (%v, %v, %v, %v), want (5, 5, 9, 10)", mean, p50, p95, p99)
	}
	if m, a, b, c := latencySummary(nil); m != 0 || a != 0 || b != 0 || c != 0 {
		t.Fatalf("empty summary = (%v, %v, %v, %v), want zeros", m, a, b, c)
	}
}
