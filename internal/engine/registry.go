// Package engine turns the study's experiments into data: a Registry
// of runnable experiment descriptors, a concurrent Runner with a
// bounded worker pool, and a RunReport that accounts for where the
// wall-clock time went. The root package registers E01–E26 and
// A01–A07 here and every consumer — CLI, examples, benchmarks, tests
// — selects and executes them through the same engine.
//
// The engine is generic over the result type so it carries no
// dependency on the root package: the suite instantiates it with its
// ExperimentResult.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// Kind distinguishes the paper's main experiments from the
// design-choice ablation studies.
type Kind string

// The two experiment kinds.
const (
	KindExperiment Kind = "experiment"
	KindAblation   Kind = "ablation"
)

// Experiment describes one runnable artifact reproduction. Run
// receives the runner's context and should abandon work when it is
// cancelled; experiments that ignore the context are still skipped by
// the Runner once cancellation is observed, they just cannot be
// interrupted mid-flight.
type Experiment[T any] struct {
	// ID is the stable identifier (e.g. "E07", "A03"). IDs are
	// normalized to upper case on registration.
	ID string
	// Title names the paper artifact the experiment reproduces.
	Title string
	// Kind is KindExperiment or KindAblation (defaults to
	// KindExperiment on registration).
	Kind Kind
	// Run produces the experiment's result.
	Run func(ctx context.Context) (T, error)
}

// Registration and selection failures.
var (
	ErrRegister  = errors.New("engine: register")
	ErrUnknownID = errors.New("engine: unknown experiment id")
)

// Registry holds experiments in registration order and resolves ID
// sets. Registration is not synchronized: register everything first,
// then share the registry freely — lookups and selection are
// read-only and safe for concurrent use.
type Registry[T any] struct {
	entries []Experiment[T]
	index   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry[T any]() *Registry[T] {
	return &Registry[T]{index: make(map[string]int)}
}

// NormalizeID canonicalizes an experiment ID ("  e07 " → "E07").
func NormalizeID(id string) string {
	return strings.ToUpper(strings.TrimSpace(id))
}

// Register adds an experiment, rejecting empty IDs, nil runners, and
// duplicate IDs.
func (r *Registry[T]) Register(e Experiment[T]) error {
	id := NormalizeID(e.ID)
	if id == "" {
		return fmt.Errorf("%w: empty id", ErrRegister)
	}
	if e.Run == nil {
		return fmt.Errorf("%w: %s: nil Run", ErrRegister, id)
	}
	if _, dup := r.index[id]; dup {
		return fmt.Errorf("%w: duplicate id %s", ErrRegister, id)
	}
	if e.Kind == "" {
		e.Kind = KindExperiment
	}
	e.ID = id
	r.index[id] = len(r.entries)
	r.entries = append(r.entries, e)
	return nil
}

// MustRegister registers or panics — for wiring up a fixed set of
// built-in experiments where a failure is a programming error.
func (r *Registry[T]) MustRegister(e Experiment[T]) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Len reports the number of registered experiments.
func (r *Registry[T]) Len() int { return len(r.entries) }

// All returns every experiment in registration order.
func (r *Registry[T]) All() []Experiment[T] {
	out := make([]Experiment[T], len(r.entries))
	copy(out, r.entries)
	return out
}

// OfKind returns the experiments of one kind in registration order.
func (r *Registry[T]) OfKind(k Kind) []Experiment[T] {
	var out []Experiment[T]
	for _, e := range r.entries {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Lookup resolves one ID (case-insensitively).
func (r *Registry[T]) Lookup(id string) (Experiment[T], bool) {
	i, ok := r.index[NormalizeID(id)]
	if !ok {
		return Experiment[T]{}, false
	}
	return r.entries[i], true
}

// Select resolves an ID set into experiments in registration order —
// the order of ids does not matter and duplicates collapse. An empty
// set selects everything. Unknown IDs return ErrUnknownID naming
// every offender.
func (r *Registry[T]) Select(ids []string) ([]Experiment[T], error) {
	if len(ids) == 0 {
		return r.All(), nil
	}
	want := make(map[string]bool, len(ids))
	var unknown []string
	for _, id := range ids {
		id = NormalizeID(id)
		if id == "" {
			continue
		}
		if _, ok := r.index[id]; !ok {
			unknown = append(unknown, id)
			continue
		}
		want[id] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("%w: %s (known: %s)",
			ErrUnknownID, strings.Join(unknown, ", "), r.idList())
	}
	var out []Experiment[T]
	for _, e := range r.entries {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

// idList renders the registered IDs for error messages.
func (r *Registry[T]) idList() string {
	ids := make([]string, len(r.entries))
	for i, e := range r.entries {
		ids[i] = e.ID
	}
	return strings.Join(ids, ",")
}

// ParseIDs splits a comma-separated ID list, trimming blanks — the
// CLI's "-experiments E02,e05" syntax.
func ParseIDs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if id := NormalizeID(part); id != "" {
			out = append(out, id)
		}
	}
	return out
}
