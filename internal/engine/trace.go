package engine

import (
	"fmt"
	"sort"
	"time"

	"sdnbugs/internal/report"
)

// Timing is one experiment's row in a RunReport.
type Timing struct {
	ID       string
	Title    string
	Kind     Kind
	Duration time.Duration
	Passed   int
	Failed   int
	Err      error
}

// Status summarizes a timing row: "ok", "FAIL" (a check did not
// hold) or "ERROR" (no result produced).
func (t Timing) Status() string {
	switch {
	case t.Err != nil:
		return "ERROR"
	case t.Failed > 0:
		return "FAIL"
	default:
		return "ok"
	}
}

// RunReport is the observability view of a completed Run: where the
// wall-clock time went, which experiments dominated it, and what
// failed. Durations are measurements, not deterministic artifacts —
// render the report to stderr or logs, never into byte-compared
// output.
type RunReport struct {
	// Timings mirror the run's outcomes in submission order.
	Timings []Timing
	// Wall is the batch's end-to-end time; Serial sums the
	// per-experiment durations (the cpu-serial cost).
	Wall, Serial time.Duration
}

// NewReport builds a report from a completed run.
func NewReport[T any](run Run[T]) *RunReport {
	r := &RunReport{Wall: run.Wall, Serial: run.Serial()}
	r.Timings = make([]Timing, len(run.Outcomes))
	for i, o := range run.Outcomes {
		r.Timings[i] = Timing{ID: o.ID, Title: o.Title, Kind: o.Kind,
			Duration: o.Duration, Passed: o.Passed, Failed: o.Failed, Err: o.Err}
	}
	return r
}

// Counts tallies rows by status: ok, failed checks, errored.
func (r *RunReport) Counts() (ok, failed, errored int) {
	for _, t := range r.Timings {
		switch t.Status() {
		case "ERROR":
			errored++
		case "FAIL":
			failed++
		default:
			ok++
		}
	}
	return ok, failed, errored
}

// SlowestN returns up to n rows by descending duration (ties keep
// submission order).
func (r *RunReport) SlowestN(n int) []Timing {
	sorted := make([]Timing, len(r.Timings))
	copy(sorted, r.Timings)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Duration > sorted[j].Duration
	})
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}

// Speedup is serial time over wall time — ~1.0 for a sequential run,
// approaching the worker count under ideal parallelism.
func (r *RunReport) Speedup() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Serial) / float64(r.Wall)
}

// Summary is the one-line account: experiment count, wall vs serial
// time, speedup and the status tally.
func (r *RunReport) Summary() string {
	ok, failed, errored := r.Counts()
	return fmt.Sprintf("%d experiments in %s wall / %s serial (%.1fx); %d ok, %d failed checks, %d errored",
		len(r.Timings), fmtDur(r.Wall), fmtDur(r.Serial), r.Speedup(), ok, failed, errored)
}

// TimingTable renders per-experiment timings in submission order.
func (r *RunReport) TimingTable() *report.Table {
	t := &report.Table{Title: "Per-experiment timings",
		Headers: []string{"id", "kind", "duration", "checks", "status"}}
	for _, row := range r.Timings {
		_ = t.AddRow(row.ID, string(row.Kind), fmtDur(row.Duration),
			fmt.Sprintf("%d/%d", row.Passed, row.Passed+row.Failed), row.Status())
	}
	return t
}

// SlowestTable renders the slowest-n rows with their share of the
// serial time.
func (r *RunReport) SlowestTable(n int) *report.Table {
	t := &report.Table{Title: fmt.Sprintf("Slowest %d experiments", n),
		Headers: []string{"id", "duration", "share", "title"}}
	for _, row := range r.SlowestN(n) {
		share := 0.0
		if r.Serial > 0 {
			share = float64(row.Duration) / float64(r.Serial)
		}
		_ = t.AddRow(row.ID, fmtDur(row.Duration), report.Pct(share), row.Title)
	}
	return t
}

// fmtDur rounds a duration for display (10µs grain keeps sub-ms
// experiments legible without drowning rows in digits).
func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}
