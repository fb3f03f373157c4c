package resilience

import (
	"errors"
	"testing"
	"time"
)

// fakeClock lets breaker tests step time deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(clk *fakeClock) *Breaker {
	return NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		SuccessThreshold: 2,
		OpenTimeout:      10 * time.Second,
		Now:              clk.now,
	})
}

// fail records n failed admitted requests.
func fail(t *testing.T, b *Breaker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow() = %v before trip", err)
		}
		b.Record(false)
	}
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk)
	fail(t, b, 2)
	if b.State() != StateClosed {
		t.Fatalf("state = %v after 2 failures, want closed", b.State())
	}
	fail(t, b, 1)
	if b.State() != StateOpen {
		t.Fatalf("state = %v after 3 failures, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow() while open = %v, want ErrOpen", err)
	}
	if hint := hintFrom(b.Allow()); hint <= 0 || hint > 10*time.Second {
		t.Errorf("open rejection hint = %v, want (0, 10s]", hint)
	}
	opens, rejections := b.Counts()
	if opens != 1 || rejections != 2 {
		t.Errorf("counts = %d opens, %d rejections; want 1, 2", opens, rejections)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk)
	fail(t, b, 2)
	_ = b.Allow()
	b.Record(true) // streak broken
	fail(t, b, 2)
	if b.State() != StateClosed {
		t.Fatalf("state = %v, want closed (failures must be consecutive)", b.State())
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk)
	fail(t, b, 3)
	clk.advance(10 * time.Second)
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %v after open timeout, want half-open", b.State())
	}
	// Only one probe slot: the second concurrent Allow is rejected.
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow() = %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second probe Allow() = %v, want ErrOpen", err)
	}
	b.Record(true)
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %v after 1 success, want half-open (threshold 2)", b.State())
	}
	_ = b.Allow()
	b.Record(true)
	if b.State() != StateClosed {
		t.Fatalf("state = %v after 2 successes, want closed", b.State())
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk)
	fail(t, b, 3)
	clk.advance(10 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow() = %v", err)
	}
	b.Record(false)
	if b.State() != StateOpen {
		t.Fatalf("state = %v after failed probe, want open", b.State())
	}
	// The fresh open period starts from the failed probe.
	clk.advance(9 * time.Second)
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow() = %v, want ErrOpen until the new timeout elapses", err)
	}
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow() = %v after second timeout, want probe admitted", err)
	}
	opens, _ := b.Counts()
	if opens != 2 {
		t.Errorf("opens = %d, want 2", opens)
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for state, want := range map[BreakerState]string{
		StateClosed: "closed", StateOpen: "open", StateHalfOpen: "half-open",
	} {
		if got := state.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", state, got, want)
		}
	}
}
