package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"context"
)

// PanicError records an experiment that panicked instead of returning.
// The runner converts panics into errored outcomes so one bad
// experiment cannot take down the whole batch (or, worse, a worker
// goroutine, wedging the pool).
type PanicError struct {
	// ID is the panicking experiment.
	ID string
	// Value is what was passed to panic.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: experiment %s panicked: %v", e.ID, e.Value)
}

// Outcome is one experiment's execution record: its result or error,
// how long it took, and how its paper-vs-measured checks went.
type Outcome[T any] struct {
	ID    string
	Title string
	Kind  Kind
	// Result is the zero value when Err is non-nil.
	Result T
	// Err is the run error, or the runner context's error for
	// experiments skipped after cancellation.
	Err error
	// Duration is the experiment's own wall-clock time.
	Duration time.Duration
	// Passed and Failed count the result's checks (via Runner.Checks;
	// both zero when no counter is configured or the run errored).
	Passed, Failed int
}

// EventType tags runner lifecycle events.
type EventType int

// Runner event types.
const (
	EventStart EventType = iota
	EventFinish
)

// Event is a start/finish notification streamed to Runner.OnEvent.
type Event struct {
	Type  EventType
	ID    string
	Title string
	// Index is the experiment's position in the submitted slice;
	// Total is the slice length.
	Index, Total int
	// Duration and Err are set on EventFinish only.
	Duration time.Duration
	Err      error
}

// Runner executes experiments on a bounded worker pool. Unlike a
// fail-fast loop it always produces one Outcome per submitted
// experiment: failures are recorded, not propagated mid-run.
//
// The zero value runs with GOMAXPROCS workers, no check counting and
// no event hook.
type Runner[T any] struct {
	// Parallelism bounds the worker pool; <= 0 means GOMAXPROCS.
	Parallelism int
	// Checks, when set, counts a successful result's passed and
	// failed checks into its Outcome.
	Checks func(T) (passed, failed int)
	// OnEvent, when set, receives start/finish events. Calls are
	// serialized by the runner, so the hook needs no locking of its
	// own.
	OnEvent func(Event)
	// ExperimentTimeout bounds each experiment's wall-clock time when
	// positive: the experiment runs under a context.WithTimeout child
	// of the run context, and if it has not returned by the deadline
	// its outcome errors with context.DeadlineExceeded while the rest
	// of the batch keeps running. A wedged experiment that ignores its
	// context leaks one goroutine until it finishes on its own — the
	// price of not letting it wedge the whole batch. 0 means no bound.
	ExperimentTimeout time.Duration

	mu sync.Mutex
}

// Run executes the experiments and returns their outcomes in
// submission order regardless of completion order. Cancelling ctx
// stops new experiments from starting; already-running ones finish
// (or react to ctx themselves) and experiments never started carry
// the context's error as their Outcome.Err. The returned error is
// ctx.Err() after cancellation, nil otherwise — per-experiment
// failures live in the outcomes.
func (r *Runner[T]) Run(ctx context.Context, exps []Experiment[T]) (Run[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := r.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	outcomes := make([]Outcome[T], len(exps))
	start := time.Now()
	if len(exps) > 0 {
		jobs := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range jobs {
					outcomes[i] = r.runOne(ctx, exps[i], i, len(exps))
				}
			}()
		}
		// Workers drain every job — runOne short-circuits once the
		// context is cancelled — so this send never wedges.
		for i := range exps {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	return Run[T]{Outcomes: outcomes, Wall: time.Since(start)}, ctx.Err()
}

// runOne executes a single experiment, emitting start/finish events.
func (r *Runner[T]) runOne(ctx context.Context, e Experiment[T], i, total int) Outcome[T] {
	out := Outcome[T]{ID: e.ID, Title: e.Title, Kind: e.Kind}
	r.emit(Event{Type: EventStart, ID: e.ID, Title: e.Title, Index: i, Total: total})
	begin := time.Now()
	if err := ctx.Err(); err != nil {
		out.Err = fmt.Errorf("engine: %s not started: %w", e.ID, err)
	} else if res, err := r.runBounded(ctx, e); err != nil {
		out.Err = err
	} else {
		out.Result = res
		if r.Checks != nil {
			out.Passed, out.Failed = r.Checks(res)
		}
	}
	out.Duration = time.Since(begin)
	r.emit(Event{Type: EventFinish, ID: e.ID, Title: e.Title, Index: i, Total: total,
		Duration: out.Duration, Err: out.Err})
	return out
}

// runBounded applies the runner's per-experiment timeout. Without one
// the experiment runs inline on the worker; with one it runs on its own
// goroutine so the worker can abandon it at the deadline (see the
// ExperimentTimeout doc for the leak trade-off).
func (r *Runner[T]) runBounded(ctx context.Context, e Experiment[T]) (T, error) {
	if r.ExperimentTimeout <= 0 {
		return runProtected(ctx, e)
	}
	tctx, cancel := context.WithTimeout(ctx, r.ExperimentTimeout)
	defer cancel()
	type result struct {
		res T
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := runProtected(tctx, e)
		done <- result{res, err}
	}()
	select {
	case out := <-done:
		return out.res, out.err
	case <-tctx.Done():
		var zero T
		return zero, fmt.Errorf("engine: %s abandoned after %v: %w", e.ID, r.ExperimentTimeout, tctx.Err())
	}
}

// runProtected invokes the experiment with panic recovery: a panic
// becomes a *PanicError carrying the panic value and stack, and the
// worker goroutine survives to run the remaining experiments.
func runProtected[T any](ctx context.Context, e Experiment[T]) (res T, err error) {
	defer func() {
		if v := recover(); v != nil {
			var zero T
			res, err = zero, &PanicError{ID: e.ID, Value: v, Stack: debug.Stack()}
		}
	}()
	return e.Run(ctx)
}

// emit serializes OnEvent calls across workers.
func (r *Runner[T]) emit(ev Event) {
	if r.OnEvent == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.OnEvent(ev)
}

// Run is a completed batch: per-experiment outcomes in submission
// order plus the batch's total wall-clock time.
type Run[T any] struct {
	Outcomes []Outcome[T]
	Wall     time.Duration
}

// Serial sums the per-experiment durations — what a one-worker run
// would roughly have cost.
func (r Run[T]) Serial() time.Duration {
	var total time.Duration
	for _, o := range r.Outcomes {
		total += o.Duration
	}
	return total
}

// Err returns the first per-experiment error in submission order,
// or nil when every experiment ran cleanly.
func (r Run[T]) Err() error {
	for _, o := range r.Outcomes {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}

// Counts tallies outcomes: ok (ran, all checks held), failed (ran,
// some check did not hold), errored (did not produce a result).
func (r Run[T]) Counts() (ok, failed, errored int) {
	for _, o := range r.Outcomes {
		switch {
		case o.Err != nil:
			errored++
		case o.Failed > 0:
			failed++
		default:
			ok++
		}
	}
	return ok, failed, errored
}
