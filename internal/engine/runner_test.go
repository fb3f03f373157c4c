package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunnerOrderedResults(t *testing.T) {
	// Experiments finish out of order (later ones are faster) but
	// outcomes must come back in submission order.
	const n = 8
	exps := make([]Experiment[int], n)
	for i := range exps {
		i := i
		exps[i] = Experiment[int]{ID: fmt.Sprintf("E%02d", i), Kind: KindExperiment,
			Run: func(context.Context) (int, error) {
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return i * 10, nil
			}}
	}
	r := &Runner[int]{Parallelism: 4}
	run, err := r.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Outcomes) != n {
		t.Fatalf("outcomes = %d, want %d", len(run.Outcomes), n)
	}
	for i, o := range run.Outcomes {
		if o.ID != fmt.Sprintf("E%02d", i) || o.Result != i*10 {
			t.Errorf("outcome[%d] = {%s %d}, want {E%02d %d}", i, o.ID, o.Result, i, i*10)
		}
		if o.Err != nil {
			t.Errorf("outcome[%d] err = %v", i, o.Err)
		}
		if o.Duration <= 0 {
			t.Errorf("outcome[%d] duration = %v, want > 0", i, o.Duration)
		}
	}
	if run.Wall <= 0 || run.Serial() <= 0 {
		t.Errorf("wall = %v, serial = %v, want both > 0", run.Wall, run.Serial())
	}
}

func TestRunnerCollectsPartialFailures(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment[int]{
		{ID: "A", Run: func(context.Context) (int, error) { return 1, nil }},
		{ID: "B", Run: func(context.Context) (int, error) { return 0, boom }},
		{ID: "C", Run: func(context.Context) (int, error) { return 3, nil }},
	}
	r := &Runner[int]{Parallelism: 1}
	run, err := r.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	// Unlike a fail-fast loop, C still ran.
	if run.Outcomes[2].Err != nil || run.Outcomes[2].Result != 3 {
		t.Errorf("C should run despite B failing: %+v", run.Outcomes[2])
	}
	if !errors.Is(run.Outcomes[1].Err, boom) {
		t.Errorf("B err = %v, want boom", run.Outcomes[1].Err)
	}
	if !errors.Is(run.Err(), boom) {
		t.Errorf("Run.Err = %v, want boom", run.Err())
	}
	ok, failed, errored := run.Counts()
	if ok != 2 || failed != 0 || errored != 1 {
		t.Errorf("Counts = %d/%d/%d, want 2/0/1", ok, failed, errored)
	}
}

func TestRunnerChecksCounting(t *testing.T) {
	exps := []Experiment[int]{
		{ID: "A", Run: func(context.Context) (int, error) { return 3, nil }},
	}
	r := &Runner[int]{Parallelism: 1, Checks: func(v int) (int, int) { return v, v + 1 }}
	run, err := r.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	o := run.Outcomes[0]
	if o.Passed != 3 || o.Failed != 4 {
		t.Errorf("checks = %d/%d, want 3/4", o.Passed, o.Failed)
	}
	if o.OK() {
		t.Error("outcome with failed checks must not be OK")
	}
	ok, failed, errored := run.Counts()
	if ok != 0 || failed != 1 || errored != 0 {
		t.Errorf("Counts = %d/%d/%d, want 0/1/0", ok, failed, errored)
	}
}

func TestRunnerCancellationMidRun(t *testing.T) {
	// One worker: the first experiment cancels the context, so every
	// later experiment must be skipped with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran []string
	exps := []Experiment[int]{
		{ID: "A", Run: func(context.Context) (int, error) { ran = append(ran, "A"); cancel(); return 1, nil }},
		{ID: "B", Run: func(context.Context) (int, error) { ran = append(ran, "B"); return 2, nil }},
		{ID: "C", Run: func(context.Context) (int, error) { ran = append(ran, "C"); return 3, nil }},
	}
	r := &Runner[int]{Parallelism: 1}
	run, err := r.Run(ctx, exps)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ran) != 1 || ran[0] != "A" {
		t.Errorf("ran = %v, want [A] only", ran)
	}
	if run.Outcomes[0].Err != nil {
		t.Errorf("A should have completed: %v", run.Outcomes[0].Err)
	}
	for _, o := range run.Outcomes[1:] {
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("%s err = %v, want context.Canceled", o.ID, o.Err)
		}
	}
}

func TestRunnerEventStream(t *testing.T) {
	exps := []Experiment[int]{
		{ID: "A", Title: "ta", Run: func(context.Context) (int, error) { return 1, nil }},
		{ID: "B", Title: "tb", Run: func(context.Context) (int, error) { return 0, errors.New("x") }},
	}
	var mu sync.Mutex
	starts, finishes := map[string]bool{}, map[string]error{}
	r := &Runner[int]{Parallelism: 2, OnEvent: func(ev Event) {
		// The runner serializes OnEvent; the mutex here only pairs the
		// test's own reads with the hook's writes.
		mu.Lock()
		defer mu.Unlock()
		switch ev.Type {
		case EventStart:
			starts[ev.ID] = true
		case EventFinish:
			finishes[ev.ID] = ev.Err
			if ev.Duration < 0 {
				t.Errorf("finish %s duration = %v", ev.ID, ev.Duration)
			}
		}
		if ev.Total != 2 {
			t.Errorf("event Total = %d, want 2", ev.Total)
		}
	}}
	if _, err := r.Run(context.Background(), exps); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !starts["A"] || !starts["B"] {
		t.Errorf("starts = %v, want A and B", starts)
	}
	if finishes["A"] != nil || finishes["B"] == nil {
		t.Errorf("finishes = %v, want A ok and B errored", finishes)
	}
}

func TestRunnerRecoversPanickingExperiment(t *testing.T) {
	exps := []Experiment[int]{
		{ID: "A", Run: func(context.Context) (int, error) { return 1, nil }},
		{ID: "B", Run: func(context.Context) (int, error) { panic("nil map write") }},
		{ID: "C", Run: func(context.Context) (int, error) { return 3, nil }},
	}
	r := &Runner[int]{Parallelism: 1}
	run, err := r.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	// The panic becomes one errored outcome; the pool survives and C
	// still runs on the same worker.
	var pe *PanicError
	if !errors.As(run.Outcomes[1].Err, &pe) {
		t.Fatalf("B err = %v, want *PanicError", run.Outcomes[1].Err)
	}
	if pe.ID != "B" || pe.Value != "nil map write" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = {ID:%s Value:%v stack:%dB}", pe.ID, pe.Value, len(pe.Stack))
	}
	if s := pe.Error(); !strings.Contains(s, "B") || !strings.Contains(s, "nil map write") {
		t.Errorf("Error() = %q, want ID and value", s)
	}
	if run.Outcomes[0].Result != 1 || run.Outcomes[2].Result != 3 {
		t.Errorf("neighbors disturbed: %+v", run.Outcomes)
	}
	ok, failed, errored := run.Counts()
	if ok != 2 || failed != 0 || errored != 1 {
		t.Errorf("Counts = %d/%d/%d, want 2/0/1", ok, failed, errored)
	}
}

func TestRunnerExperimentTimeout(t *testing.T) {
	// B wedges well past the deadline; A and C are quick. Only B's
	// outcome may error, and it must carry context.DeadlineExceeded.
	exps := []Experiment[int]{
		{ID: "A", Run: func(context.Context) (int, error) { return 1, nil }},
		{ID: "B", Run: func(ctx context.Context) (int, error) {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(10 * time.Second):
				return 2, nil
			}
		}},
		{ID: "C", Run: func(context.Context) (int, error) { return 3, nil }},
	}
	r := &Runner[int]{Parallelism: 1, ExperimentTimeout: 20 * time.Millisecond}
	run, err := r.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(run.Outcomes[1].Err, context.DeadlineExceeded) {
		t.Fatalf("B err = %v, want context.DeadlineExceeded", run.Outcomes[1].Err)
	}
	if s := run.Outcomes[1].Err.Error(); !strings.Contains(s, "B") || !strings.Contains(s, "abandoned") {
		t.Errorf("B err = %q, want the ID and the abandonment", s)
	}
	if run.Outcomes[0].Result != 1 || run.Outcomes[0].Err != nil ||
		run.Outcomes[2].Result != 3 || run.Outcomes[2].Err != nil {
		t.Errorf("neighbors disturbed: %+v", run.Outcomes)
	}
	ok, failed, errored := run.Counts()
	if ok != 2 || failed != 0 || errored != 1 {
		t.Errorf("Counts = %d/%d/%d, want 2/0/1", ok, failed, errored)
	}
}

func TestRunnerTimeoutLeavesFastExperimentsAlone(t *testing.T) {
	// A generous deadline must not disturb experiments that finish in
	// time, and the zero value must keep running inline (unbounded).
	exps := []Experiment[int]{
		{ID: "A", Run: func(context.Context) (int, error) { return 7, nil }},
	}
	for _, timeout := range []time.Duration{0, time.Minute} {
		r := &Runner[int]{Parallelism: 1, ExperimentTimeout: timeout}
		run, err := r.Run(context.Background(), exps)
		if err != nil {
			t.Fatal(err)
		}
		if o := run.Outcomes[0]; o.Err != nil || o.Result != 7 {
			t.Errorf("timeout=%v: outcome = %+v, want clean 7", timeout, o)
		}
	}
}

func TestRunnerZeroValueAndEmpty(t *testing.T) {
	var r Runner[int]
	run, err := r.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Outcomes) != 0 {
		t.Errorf("outcomes = %d, want 0", len(run.Outcomes))
	}
	if run.Err() != nil {
		t.Errorf("empty run Err = %v", run.Err())
	}
	// nil context must not panic.
	exps := []Experiment[int]{{ID: "A", Run: func(context.Context) (int, error) { return 1, nil }}}
	//lint:ignore SA1012 deliberate nil-context robustness check
	if _, err := r.Run(nil, exps); err != nil { //nolint:staticcheck
		t.Fatal(err)
	}
}
