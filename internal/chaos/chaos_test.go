package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// okHandler serves a fixed payload.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "the quick brown fox jumps over the lazy dog")
	})
}

// sequence runs n probes against a fresh chaos server with cfg.
func sequence(t *testing.T, cfg Config, n int) ([]string, Stats) {
	t.Helper()
	h := Wrap(okHandler(), cfg)
	srv := httptest.NewServer(h)
	defer srv.Close()
	// Fresh client per sequence so connection reuse (and Go's own
	// transparent retries on dead keep-alive conns) can't bleed state
	// between sequences.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	var out []string
	for i := 0; i < n; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			out = append(out, "conn-error")
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if rerr != nil {
			out = append(out, fmt.Sprintf("%d/body-error", resp.StatusCode))
			continue
		}
		out = append(out, fmt.Sprintf("%d/%dB", resp.StatusCode, len(body)))
	}
	return out, h.Stats()
}

func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 0.6, RetryAfter: time.Millisecond, Latency: time.Millisecond}
	a, statsA := sequence(t, cfg, 40)
	b, statsB := sequence(t, cfg, 40)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed diverged:\n%v\n%v", a, b)
	}
	if statsA != statsB {
		t.Errorf("stats diverged: %+v vs %+v", statsA, statsB)
	}
	c, _ := sequence(t, Config{Seed: 43, Rate: 0.6, RetryAfter: time.Millisecond, Latency: time.Millisecond}, 40)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds produced an identical schedule")
	}
}

func TestFaultMixAtFullRate(t *testing.T) {
	// Rate 1: every request is faulted except the one forced clean
	// after each MaxConsecutive run, and over enough draws every kind
	// appears.
	cfg := Config{Seed: 7, Rate: 1, RetryAfter: time.Millisecond,
		Latency: time.Millisecond}
	_, stats := sequence(t, cfg, 120)
	if stats.Requests != 120 {
		t.Fatalf("requests = %d, want 120", stats.Requests)
	}
	if stats.RateLimits == 0 || stats.ServerErrors == 0 || stats.Latencies == 0 ||
		stats.Truncations == 0 || stats.Drops == 0 {
		t.Errorf("some fault kind never fired: %+v", stats)
	}
	if stats.Faults() != stats.RateLimits+stats.ServerErrors+stats.Truncations+stats.Drops {
		t.Errorf("Faults() inconsistent with kind counts: %+v", stats)
	}
}

func TestForcedProgressBound(t *testing.T) {
	// At rate 1 every request wants a fault, but after MaxConsecutive
	// error faults the next request must be served cleanly — the
	// guarantee retrying clients build on.
	cfg := Config{Seed: 1, Rate: 1, RetryAfter: time.Millisecond,
		Latency: time.Millisecond}
	outcomes, _ := sequence(t, cfg, 60)
	streak := 0
	sawClean := false
	for _, o := range outcomes {
		// Both clean pass-throughs and latency spikes deliver the full
		// 200/43B response; anything else is an error fault.
		if o == "200/43B" {
			streak = 0
			sawClean = true
			continue
		}
		streak++
		if streak > MaxConsecutive {
			t.Fatalf("%d consecutive error faults, bound is %d: %v", streak, MaxConsecutive, outcomes)
		}
	}
	if !sawClean {
		t.Error("no request ever served cleanly at rate 1 — forced progress broken")
	}
}

func TestRateLimitCarriesRetryAfter(t *testing.T) {
	h := Wrap(okHandler(), Config{Seed: 3, Rate: 1, RetryAfter: 2 * time.Second})
	srv := httptest.NewServer(h)
	defer srv.Close()
	// Walk until the schedule produces a 429.
	for i := 0; i < 50; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			continue
		}
		code := resp.StatusCode
		ra := resp.Header.Get("Retry-After")
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if code == http.StatusTooManyRequests {
			if ra != "2" {
				t.Errorf("Retry-After = %q, want \"2\"", ra)
			}
			return
		}
	}
	t.Fatal("no 429 injected in 50 requests at rate 1")
}

func TestTruncationDeliversPartialBody(t *testing.T) {
	h := Wrap(okHandler(), Config{Seed: 5, Rate: 1, RetryAfter: time.Millisecond,
		Latency: time.Millisecond})
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for i := 0; i < 80; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusOK && rerr != nil {
			if len(body) >= 43 {
				t.Errorf("truncated read returned %d bytes of 43", len(body))
			}
			return // got a mid-body failure, as designed
		}
	}
	t.Fatal("no truncation observed in 80 requests at rate 1")
}

func TestZeroConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Rate != DefaultRate || cfg.Latency != DefaultLatency {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.RetryAfter != time.Second {
		t.Errorf("RetryAfter default = %v, want 1s", cfg.RetryAfter)
	}
}

// TestLatencySpikeAbortsOnContextCancel pins the fix for the latency
// injector ignoring request cancellation: a spike must return as soon
// as the request's context is done, not sleep out the full delay.
func TestLatencySpikeAbortsOnContextCancel(t *testing.T) {
	h := Wrap(okHandler(), Config{Seed: 1, Rate: 1, Latency: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: any spike must abort immediately
	start := time.Now()
	deadline := start.Add(5 * time.Second)
	for h.Stats().Latencies == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no latency spike drawn within the deadline")
		}
		func() {
			// Drop injections sever the connection via panic; swallow
			// them, the spike is what this test is after.
			defer func() { _ = recover() }()
			req := httptest.NewRequest(http.MethodGet, "/", nil).WithContext(ctx)
			h.ServeHTTP(httptest.NewRecorder(), req)
		}()
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled latency spike blocked for %v", elapsed)
	}
}
