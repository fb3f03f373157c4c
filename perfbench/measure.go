package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer samples is noise, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of samples, or false when fewer than minBeyond samples lie above it.
// samples need not be sorted; percentile sorts a copy.
func percentile(samples []float64, p float64) (float64, bool) {
	if len(samples) == 0 || p <= 0 || p > 100 {
		return 0, false
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	idx = max(idx, 0)
	if len(s)-1-idx < minBeyond {
		return s[idx], false
	}
	return s[idx], true
}

// tailPercentile returns the p-th percentile when enough samples lie
// beyond it, and otherwise the highest percentile that still has
// minBeyond samples above it, together with the percentile used. With
// minBeyond or fewer samples it falls back to the median.
func tailPercentile(samples []float64, p float64) (value, used float64) {
	if v, ok := percentile(samples, p); ok {
		return v, p
	}
	n := len(samples)
	if n <= minBeyond {
		v, _ := percentile(samples, 50)
		return v, 50
	}
	// The highest rank with minBeyond samples above it.
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := n - minBeyond
	return s[rank-1], 100 * float64(rank) / float64(n)
}

// latencyWindows is how many consecutive windows an open-loop phase is
// cut into for its percentiles.
const latencyWindows = 10

// windowedPercentile returns the median over consecutive windows of
// samples of each window's tailPercentile(p). One stall on a shared
// host — a neighbour's burst, one long GC cycle — then moves one
// window's figure instead of the whole run's. With too few samples for
// each window to keep minBeyond beyond p, it uses one window.
func windowedPercentile(samples []float64, windows int, p float64) float64 {
	need := int(math.Ceil(float64(minBeyond) / (1 - p/100)))
	if windows < 1 || len(samples)/windows < need {
		windows = 1
	}
	size := len(samples) / windows
	tails := make([]float64, windows)
	for w := range tails {
		end := (w + 1) * size
		if w == windows-1 {
			end = len(samples)
		}
		tails[w], _ = tailPercentile(samples[w*size:end], p)
	}
	return median(tails)
}

// median returns the middle value (mean of the two middle values for
// an even count) of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// schedule is an open-loop arrival schedule: request i is due at
// start + i*interval, whether or not earlier requests have finished.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func newSchedule(start time.Time, ratePerSec float64) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / ratePerSec)}
}

// due returns when request i should be sent.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// dueBy returns how many requests are due at or before t.
func (s schedule) dueBy(t time.Time) int {
	if t.Before(s.start) {
		return 0
	}
	return int(t.Sub(s.start)/s.interval) + 1
}

// openLoop collects one open-loop phase. Latency runs from when a
// request was due, so a stall also counts against the requests queued
// behind it. One part of the delay is not the system's: on this kind
// of host a sleeping generator wakes up to a millisecond late (timer
// granularity). When the generator was idle at the due time, that
// wake-up delay is credited back and the request is timed from when it
// was actually sent; when the generator was still busy with earlier
// requests at the due time, nothing is credited.
type openLoop struct {
	sched schedule
	// late is how long after its due time each request was sent,
	// credit the part of that caused by the generator's own timer, and
	// done how long after its due time it completed; all in
	// microseconds. Each index is written by one goroutine only.
	late, credit, done []float64
}

func newOpenLoop(sched schedule, n int) *openLoop {
	return &openLoop{sched: sched, late: make([]float64, n), credit: make([]float64, n), done: make([]float64, n)}
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sentAt records that request i was sent at t by a generator that had
// been free to send since free.
func (o *openLoop) sentAt(i int, t, free time.Time) {
	due := o.sched.due(i)
	o.late[i] = micros(t.Sub(due))
	if !free.After(due) {
		o.credit[i] = o.late[i]
	}
}

// doneAt records that request i completed at t.
func (o *openLoop) doneAt(i int, t time.Time) {
	o.done[i] = micros(t.Sub(o.sched.due(i)))
}

// latencies returns each request's latency in microseconds. Call it
// after every sender and completer has finished.
func (o *openLoop) latencies() []float64 {
	out := make([]float64, len(o.done))
	for i := range out {
		out[i] = o.done[i] - o.credit[i]
	}
	return out
}

// maxDrainShare bounds how far behind schedule the last completion may
// be, as a share of the phase length. A system that keeps up finishes
// the last request about one service time after it is due; one that
// cannot keep up accumulates a backlog that grows with the phase, and
// its latency figures describe the queue, not the system.
const maxDrainShare = 0.1

// validate reports an error when the generator or the system fell
// behind the schedule, so the phase's latency must not be reported.
func (o *openLoop) validate() error {
	n := len(o.done)
	if n == 0 {
		return fmt.Errorf("open loop: no requests")
	}
	last := o.sched.due(n - 1)
	phase := micros(last.Sub(o.sched.start))
	// The backlog at the end is how long after the last due time the
	// latest completion landed.
	var drain float64
	for i, d := range o.done {
		drain = max(drain, micros(o.sched.due(i).Sub(last))+d)
	}
	if drain > maxDrainShare*phase {
		return fmt.Errorf("open loop: backlog grew: last completion %.0fus after the last due time over a %.0fus phase", drain, phase)
	}
	if late, _ := tailPercentile(o.late, 99); late > maxDrainShare*phase {
		return fmt.Errorf("open loop: generator ran %.0fus late at p99", late)
	}
	return nil
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeCounters reads the allocation and GC-pause totals the traced
// run turns into per-operation figures.
type runtimeCounters struct {
	allocObjects uint64
	gcPauseSec   float64
}

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readRuntimeCounters() runtimeCounters {
	s := slices.Clone(counterSamples)
	metrics.Read(s)
	var c runtimeCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocObjects = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		c.gcPauseSec = histogramSum(s[1].Value.Float64Histogram())
	}
	return c
}

// histogramSum estimates the total of a runtime/metrics histogram by
// weighting each bucket's count with its lower bound (the upper bound
// of the last bucket is +Inf).
func histogramSum(h *metrics.Float64Histogram) float64 {
	var total float64
	for i, n := range h.Counts {
		lo := h.Buckets[i]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		total += float64(n) * lo
	}
	return total
}

// sub returns c minus an earlier reading.
func (c runtimeCounters) sub(before runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocObjects: c.allocObjects - before.allocObjects,
		gcPauseSec:   c.gcPauseSec - before.gcPauseSec,
	}
}
