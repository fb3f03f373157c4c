package sdnbugs

import (
	"context"
	"runtime"
	"testing"

	"sdnbugs/internal/engine"
)

// nlpIDs are the experiments and ablations that exercise the parallel
// NLP validation path — the PR's hot set.
var nlpIDs = []string{"E09", "A01", "A02"}

// TestSuiteValidationCacheConsistent checks the suite-level validation
// cache: A02 repeats E09's exact protocol, and E12's pipeline reuses
// E09's TF-IDF vocabulary and Word2Vec model, so within one suite run
// both are answered from cache — and must render exactly as they do
// in a cache-cold suite that runs each one alone and fits its own.
func TestSuiteValidationCacheConsistent(t *testing.T) {
	if raceEnabled {
		t.Skip("full E09 workloads are too slow under -race; internal/study covers the validator cache")
	}
	ctx := context.Background()
	// E09 runs first (registration order) and primes the validator.
	warmRun, err := NewSuite(1).Run(ctx, RunOptions{IDs: []string{"E09", "E12", "A02"}, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"E12", "A02"} {
		coldRun, err := NewSuite(1).Run(ctx, RunOptions{IDs: []string{id}, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		warm := engine.Run[ExperimentResult]{Outcomes: warmRun.Outcomes[i+1 : i+2]}
		if got, want := renderRun(warm), renderRun(coldRun); got != want {
			t.Errorf("cached %s differs from cold %s:\n--- cached ---\n%s\n--- cold ---\n%s", id, id, got, want)
		}
	}
}

// TestSuiteParallelFasterThanSequential asserts the headline of the
// perf work: on a multi-core machine the parallel configuration beats
// the true-serial one on wall-clock for the NLP-heavy set. The margin
// is deliberately generous (0.9) — this guards against regressions
// that serialize the pipeline, not scheduler noise.
func TestSuiteParallelFasterThanSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("perf assertion skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock assertions are meaningless under -race instrumentation")
	}
	// NumCPU too: GOMAXPROCS can be set above the physical core count
	// (the bench target oversubscribes on purpose), and oversubscribing
	// one core cannot produce wall-clock speedup.
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("needs >= 2 CPUs to measure parallel speedup")
	}
	ctx := context.Background()

	serial := NewSuite(1)
	serial.Workers = 1
	serialRun, err := serial.Run(ctx, RunOptions{IDs: nlpIDs, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := serialRun.Err(); err != nil {
		t.Fatal(err)
	}

	par := NewSuite(1)
	parRun, err := par.Run(ctx, RunOptions{IDs: nlpIDs})
	if err != nil {
		t.Fatal(err)
	}
	if err := parRun.Err(); err != nil {
		t.Fatal(err)
	}

	if parRun.Wall >= serialRun.Wall*9/10 {
		t.Errorf("parallel run (%v) not meaningfully faster than serial (%v) on %d CPUs",
			parRun.Wall, serialRun.Wall, runtime.GOMAXPROCS(0))
	}
}
