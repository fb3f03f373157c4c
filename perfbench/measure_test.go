package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so sorting matters
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// 1000 samples: p99 is the 990th value, with exactly 10 above it.
	if v, ok := percentile(seq(1000), 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// 999 samples leave only 9 above the p99 rank.
	if _, ok := percentile(seq(999), 99); ok {
		t.Error("p99 of 999 samples accepted with 9 beyond")
	}
	if v, ok := percentile(seq(101), 50); !ok || v != 51 {
		t.Errorf("p50 of 1..101 = %v, %v; want 51, true", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples accepted")
	}
}

func TestTailPercentileFallsBack(t *testing.T) {
	if v, used := tailPercentile(seq(2000), 99); used != 99 || v != 1980 {
		t.Errorf("tail of 2000 = %v at p%v; want 1980 at p99", v, used)
	}
	// 26 samples (one study run): the highest rank with ten above is 16.
	v, used := tailPercentile(seq(26), 99)
	if v != 16 || math.Abs(used-100*16.0/26) > 1e-9 {
		t.Errorf("tail of 26 = %v at p%v; want 16 at p%.2f", v, used, 100*16.0/26)
	}
	if v, used := tailPercentile(seq(5), 99); used != 50 || v != 3 {
		t.Errorf("tail of 5 = %v at p%v; want the median 3", v, used)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWindowedPercentileIgnoresOneBadWindow(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 100
	}
	for i := 0; i < 200; i++ {
		xs[i] = 50_000 // a stall in the first window only
	}
	if got := windowedPercentile(xs, 5, 99); got != 100 {
		t.Errorf("windowed p99 = %v, want 100", got)
	}
	if v, _ := tailPercentile(xs, 99); v != 50_000 {
		t.Errorf("whole-run p99 = %v, want the stall", v)
	}
	// Too few samples per window: one window.
	if got := windowedPercentile(xs[:1500], 5, 99); got != 50_000 {
		t.Errorf("windowed p99 of 1500 = %v, want the single-window 50000", got)
	}
}

func TestScheduleDue(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 25_000)
	if s.interval != 40*time.Microsecond {
		t.Fatalf("interval = %v", s.interval)
	}
	if got := s.due(3); !got.Equal(start.Add(120 * time.Microsecond)) {
		t.Errorf("due(3) = %v", got)
	}
	for _, c := range []struct {
		at   time.Duration
		want int
	}{{-time.Microsecond, 0}, {0, 1}, {39 * time.Microsecond, 1}, {40 * time.Microsecond, 2}, {time.Millisecond, 26}} {
		if got := s.dueBy(start.Add(c.at)); got != c.want {
			t.Errorf("dueBy(start%+v) = %d, want %d", c.at, got, c.want)
		}
	}
}

func TestOpenLoopCreditsOnlyTimerLateness(t *testing.T) {
	start := time.Unix(100, 0)
	ol := newOpenLoop(newSchedule(start, 1000), 2) // due at +0 and +1ms
	us := func(n int) time.Time { return start.Add(time.Duration(n) * time.Microsecond) }
	// Request 0: the generator idled until its due time and woke 800us
	// late (timer granularity); the system then took 100us.
	ol.sentAt(0, us(800), us(-50))
	ol.doneAt(0, us(900))
	// Request 1: the generator was still blocked until 1500us, past the
	// due time, by the system; that wait counts.
	ol.sentAt(1, us(1500), us(1500))
	ol.doneAt(1, us(1600))
	lat := ol.latencies()
	if lat[0] != 100 || lat[1] != 600 {
		t.Errorf("latencies = %v, want [100 600]", lat)
	}
	if ol.late[0] != 800 || ol.late[1] != 500 {
		t.Errorf("lateness = %v, want [800 500]", ol.late)
	}
}

func TestOpenLoopValidate(t *testing.T) {
	start := time.Unix(100, 0)
	run := func(serviceGrowth time.Duration) error {
		const n = 1000
		ol := newOpenLoop(newSchedule(start, 1000), n) // a one-second phase
		for i := 0; i < n; i++ {
			due := ol.sched.due(i)
			ol.sentAt(i, due, due)
			// Each completion lands serviceGrowth later than the last.
			ol.doneAt(i, due.Add(100*time.Microsecond+time.Duration(i)*serviceGrowth))
		}
		return ol.validate()
	}
	if err := run(0); err != nil {
		t.Errorf("steady run rejected: %v", err)
	}
	// A backlog growing 200us per request ends 200ms behind on a 1s
	// phase: past the 10% limit.
	if err := run(200 * time.Microsecond); err == nil {
		t.Error("growing backlog accepted")
	}
}
