package resilience

import (
	"errors"
	"net/http"
	"testing"
	"time"
)

func TestBackoffSchedule(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	wants := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for retry, want := range wants {
		if got := p.Backoff(retry); got != want {
			t.Errorf("Backoff(%d) = %v, want %v", retry, got, want)
		}
	}
	// Deep retries must not overflow past the cap.
	if got := p.Backoff(80); got != time.Second {
		t.Errorf("Backoff(80) = %v, want cap %v", got, time.Second)
	}
}

func TestDelayFullJitterBounds(t *testing.T) {
	// With an injected uniform source the jittered delay must stay in
	// [0, ceiling) and actually use the coefficient.
	for _, coeff := range []float64{0, 0.25, 0.999} {
		p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second,
			Rand: func() float64 { return coeff }}
		got := p.Delay(2, 0) // ceiling 400ms
		want := time.Duration(coeff * float64(400*time.Millisecond))
		if got != want {
			t.Errorf("Delay(2) with rand=%v = %v, want %v", coeff, got, want)
		}
		if got < 0 || got >= 400*time.Millisecond && coeff < 1 {
			t.Errorf("Delay(2) = %v outside [0, 400ms)", got)
		}
	}
}

func TestDelayHonorsRetryAfterHint(t *testing.T) {
	p := Policy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
		MaxRetryAfter: 3 * time.Second}
	if got := p.Delay(0, 2*time.Second); got != 2*time.Second {
		t.Errorf("hinted delay = %v, want 2s", got)
	}
	// The hint is capped so a hostile header cannot stall the miner.
	if got := p.Delay(0, time.Hour); got != 3*time.Second {
		t.Errorf("capped hinted delay = %v, want 3s", got)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"0", 0, true},
		{"7", 7 * time.Second, true},
		{"-3", 0, false},
		{"garbage", 0, false},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0, true}, // past date clamps
	}
	for _, c := range cases {
		got, ok := ParseRetryAfter(c.in, now)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseRetryAfter(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestBudgetEarnsWithTraffic(t *testing.T) {
	b := NewBudget(0, 0.5)
	for i := 0; i < 4; i++ {
		b.Deposit()
	}
	granted := 0
	for b.Withdraw() {
		granted++
	}
	if granted != 2 { // 0.5 × 4 requests
		t.Errorf("granted = %d, want 2", granted)
	}
}

func TestRetryableStatus(t *testing.T) {
	cases := []struct {
		code int
		want bool
	}{
		{http.StatusTooManyRequests, true},
		{http.StatusServiceUnavailable, true},
		{http.StatusBadGateway, true},
		{http.StatusNotImplemented, false},
		{http.StatusNotFound, false},
		{http.StatusOK, false},
	}
	for _, c := range cases {
		if got := RetryableStatus(c.code); got != c.want {
			t.Errorf("RetryableStatus(%d) = %v, want %v", c.code, got, c.want)
		}
	}
}

func TestHintFromErrorChain(t *testing.T) {
	err := error(&StatusError{Code: 429, RetryAfter: 9 * time.Second})
	if got := hintFrom(err); got != 9*time.Second {
		t.Errorf("hintFrom = %v, want 9s", got)
	}
	if got := hintFrom(errors.New("plain")); got != 0 {
		t.Errorf("hintFrom(plain) = %v, want 0", got)
	}
}
