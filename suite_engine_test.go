package sdnbugs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sdnbugs/internal/engine"
)

func TestRegistryContents(t *testing.T) {
	reg := sharedSuite.Registry()
	if reg.Len() != 33 {
		t.Fatalf("registry holds %d experiments, want 33 (E01–E26 + A01–A07)", reg.Len())
	}
	exps := reg.OfKind(engine.KindExperiment)
	if len(exps) != 26 {
		t.Fatalf("experiments = %d, want 26", len(exps))
	}
	for i, e := range exps {
		if want := fmt.Sprintf("E%02d", i+1); e.ID != want {
			t.Errorf("experiment[%d] = %s, want %s (paper order)", i, e.ID, want)
		}
		if e.Title == "" {
			t.Errorf("%s has no title", e.ID)
		}
	}
	abl := reg.OfKind(engine.KindAblation)
	if len(abl) != 7 {
		t.Fatalf("ablations = %d, want 7", len(abl))
	}
	for i, e := range abl {
		if want := fmt.Sprintf("A%02d", i+1); e.ID != want {
			t.Errorf("ablation[%d] = %s, want %s", i, e.ID, want)
		}
	}
	// The registry is built once and shared.
	if sharedSuite.Registry() != reg {
		t.Error("Registry() should be cached")
	}
}

// fastIDs are the experiments that run without NLP fitting — cheap
// enough to execute twice in one test. E21 is deliberately excluded:
// which HTTP layer absorbs a dropped connection (the resilience
// transport vs net/http's transparent idempotent retry) is not
// run-to-run stable, so its retry counters are not byte-comparable.
var fastIDs = []string{"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08",
	"E10", "E13", "E14", "E15", "E16", "E17", "E18", "E20", "E22", "E23", "E24",
	"E25", "E26"}

// renderRun flattens a run's checks and tables into one comparable
// string (durations excluded — they are measurements, not artifacts).
func renderRun(run engine.Run[ExperimentResult]) string {
	var b strings.Builder
	for _, o := range run.Outcomes {
		fmt.Fprintf(&b, "### %s %s err=%v\n", o.ID, o.Title, o.Err)
		if o.Err != nil {
			continue
		}
		for _, c := range o.Result.Checks {
			fmt.Fprintf(&b, "%s|%s|%s|%s|%v\n", c.Artifact, c.Metric, c.Paper, c.Measured, c.Holds)
		}
		for _, tbl := range o.Result.Tables {
			b.WriteString(tbl.RenderString())
		}
	}
	return b.String()
}

// TestParallelMatchesSequential is the determinism contract: the same
// suite run with a 4-worker pool must produce byte-identical checks
// and tables, in the same order, as a sequential run. Running it
// under -race also exercises the documented guarantee that Suite's
// sync.Once artifact accessors make concurrent experiments safe.
func TestParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	seq, err := sharedSuite.Run(ctx, RunOptions{IDs: fastIDs, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := sharedSuite.Run(ctx, RunOptions{IDs: fastIDs, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	seqOut, parOut := renderRun(seq), renderRun(par)
	if seqOut != parOut {
		t.Errorf("parallel run diverged from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqOut, parOut)
	}
	if seq.Err() != nil {
		t.Errorf("run error: %v", seq.Err())
	}
	for _, o := range par.Outcomes {
		if o.Passed == 0 {
			t.Errorf("%s reported no passing checks", o.ID)
		}
		if o.Failed > 0 {
			t.Errorf("%s reported %d failed checks", o.ID, o.Failed)
		}
	}
}

// TestParallelColdSuite runs concurrent experiments against a fresh
// suite so the artifact builds themselves (corpus, studies) race
// through the sync.Once accessors under -race.
func TestParallelColdSuite(t *testing.T) {
	s := NewSuite(3)
	run, err := s.Run(context.Background(), RunOptions{
		IDs: []string{"E02", "E03", "E05", "E13", "E14"}, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	if len(run.Outcomes) != 5 {
		t.Fatalf("outcomes = %d, want 5", len(run.Outcomes))
	}
}

func TestRunUnknownIDFails(t *testing.T) {
	_, err := sharedSuite.Run(context.Background(), RunOptions{IDs: []string{"E02", "E99"}})
	if !errors.Is(err, engine.ErrUnknownID) {
		t.Fatalf("err = %v, want ErrUnknownID", err)
	}
}

func TestRunSelectsAblations(t *testing.T) {
	// IDs may mix kinds; empty IDs + Ablations appends A01–A07.
	run, err := sharedSuite.Run(context.Background(), RunOptions{IDs: []string{"a06"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Outcomes) != 1 || run.Outcomes[0].ID != "A06" {
		t.Fatalf("outcomes = %+v, want exactly A06", run.Outcomes)
	}
	if run.Outcomes[0].Err != nil {
		t.Fatal(run.Outcomes[0].Err)
	}
}

func TestRunStreamsEvents(t *testing.T) {
	var events []engine.Event
	run, err := sharedSuite.Run(context.Background(), RunOptions{
		IDs:         []string{"E02", "E14"},
		Parallelism: 2,
		// The engine serializes OnEvent calls, so plain appends are safe.
		OnEvent: func(ev engine.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	starts, finishes := 0, 0
	for _, ev := range events {
		switch ev.Type {
		case engine.EventStart:
			starts++
		case engine.EventFinish:
			finishes++
		}
	}
	if starts != 2 || finishes != 2 {
		t.Errorf("events = %d starts, %d finishes, want 2/2", starts, finishes)
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run, err := sharedSuite.Run(ctx, RunOptions{IDs: fastIDs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, o := range run.Outcomes {
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("%s err = %v, want context.Canceled", o.ID, o.Err)
		}
	}
}
