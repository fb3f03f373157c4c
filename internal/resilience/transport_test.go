package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastTransport returns a Transport with microsecond backoff so tests
// stay quick.
func fastTransport(b *Breaker) *Transport {
	return NewTransport(nil, Policy{
		MaxAttempts: 5, BaseDelay: time.Microsecond, MaxDelay: 20 * time.Microsecond,
	}, b)
}

func get(t *testing.T, rt http.RoundTripper, url string) (*http.Response, error) {
	t.Helper()
	client := &http.Client{Transport: rt}
	return client.Get(url)
}

func TestTransportRetriesTransientStatus(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "payload")
	}))
	defer srv.Close()

	rt := fastTransport(nil)
	resp, err := get(t, rt, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "payload" {
		t.Errorf("body = %q", body)
	}
	m := rt.Metrics()
	if m.Requests != 1 || m.Attempts != 3 || m.Retries != 2 {
		t.Errorf("metrics = %+v, want 1 request, 3 attempts, 2 retries", m)
	}
}

func TestTransportHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	rt := fastTransport(nil)
	resp, err := get(t, rt, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if m := rt.Metrics(); m.RetryAfterSeen != 1 {
		t.Errorf("RetryAfterSeen = %d, want 1", m.RetryAfterSeen)
	}
}

func TestTransportReturnsLastResponseOnExhaustion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "permanently busy", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	rt := fastTransport(nil)
	resp, err := get(t, rt, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want the final 503 passed through", resp.StatusCode)
	}
	if m := rt.Metrics(); m.Attempts != 5 {
		t.Errorf("attempts = %d, want MaxAttempts=5", m.Attempts)
	}
}

func TestTransportRetriesTruncatedBody(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// Promise more bytes than we send, flush the header, then
			// abort: the client sees an unexpected EOF mid-body.
			w.Header().Set("Content-Length", "1000")
			_, _ = io.WriteString(w, "partial")
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		fmt.Fprint(w, "complete")
	}))
	defer srv.Close()

	rt := fastTransport(nil)
	resp, err := get(t, rt, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil || string(body) != "complete" {
		t.Fatalf("body = %q, %v", body, err)
	}
	if m := rt.Metrics(); m.BodyRetries == 0 {
		t.Errorf("metrics = %+v, want a body retry", m)
	}
}

func TestTransportDoesNotRetryNonIdempotentBody(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	rt := fastTransport(nil)
	// A streamed body with no GetBody cannot be rewound; the transport
	// must pass the 503 straight through after one attempt.
	req, err := http.NewRequest(http.MethodPost, srv.URL, struct{ io.Reader }{strings.NewReader("data")})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&http.Client{Transport: rt}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server hits = %d, want 1 (no blind POST retries)", got)
	}
}

func TestTransportCapsBodySize(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(make([]byte, 4096))
	}))
	defer srv.Close()

	rt := fastTransport(nil)
	rt.MaxBodyBytes = 1024
	_, err := get(t, rt, srv.URL)
	if err == nil || !strings.Contains(err.Error(), ErrBodyTooLarge.Error()) {
		t.Fatalf("err = %v, want ErrBodyTooLarge", err)
	}
}

func TestTransportBreakerOpensAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "down", http.StatusBadGateway)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	clk := &fakeClock{t: time.Unix(0, 0)}
	br := NewBreaker(BreakerConfig{
		FailureThreshold: 3, SuccessThreshold: 1,
		OpenTimeout: time.Minute, Now: clk.now,
	})
	// MaxRetryAfter also caps the wait hint a breaker rejection carries
	// (the remaining open period), keeping this test fast.
	rt := NewTransport(nil, Policy{
		MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond,
		MaxRetryAfter: time.Millisecond,
	}, br)

	// Two failing requests (2 attempts each) trip the breaker.
	for i := 0; i < 2; i++ {
		resp, err := get(t, rt, srv.URL)
		if err == nil {
			_ = resp.Body.Close()
		}
	}
	if br.State() != StateOpen {
		t.Fatalf("breaker state = %v, want open", br.State())
	}
	// While open, attempts are rejected without touching the server.
	if _, err := get(t, rt, srv.URL); err == nil || !strings.Contains(err.Error(), ErrOpen.Error()) {
		t.Fatalf("err = %v, want circuit-open rejection", err)
	}
	if m := rt.Metrics(); m.BreakerRejected == 0 {
		t.Error("breaker rejections not counted")
	}
	// After the open period the probe goes through and closes it.
	healthy.Store(true)
	clk.advance(time.Minute)
	resp, err := get(t, rt, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if br.State() != StateClosed {
		t.Errorf("breaker state = %v after recovery, want closed", br.State())
	}
}

func TestTransportConnectionErrorRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler) // drop every connection
	}))
	defer srv.Close()

	rt := fastTransport(nil)
	_, err := get(t, rt, srv.URL)
	if err == nil {
		t.Fatal("want error from a server that drops every connection")
	}
	if m := rt.Metrics(); m.Attempts < 2 {
		t.Errorf("attempts = %d, want retries on dropped connections", m.Attempts)
	}
}

// alwaysBusy returns a server that answers every request with 503 and
// counts the hits.
func alwaysBusy(t *testing.T, hits *atomic.Int32) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestTransportBudgetExhaustion(t *testing.T) {
	var hits atomic.Int32
	srv := alwaysBusy(t, &hits)
	b := NewBudget(1, 0) // one retry total, no per-request earnings
	rt := fastTransport(nil)
	rt.Policy.Budget = b
	_, err := get(t, rt, srv.URL)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if got := hits.Load(); got != 2 { // initial + the single budgeted retry
		t.Errorf("server hits = %d, want 2", got)
	}
	requests, retries, denied := b.Stats()
	if requests != 1 || retries != 1 || denied != 1 {
		t.Errorf("budget stats = %d/%d/%d, want 1/1/1", requests, retries, denied)
	}
}

func TestTransportStopsOnContextCancel(t *testing.T) {
	var hits atomic.Int32
	srv := alwaysBusy(t, &hits)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// An hour-long backoff that the cancellation must cut short.
	rt := NewTransport(nil, Policy{
		MaxAttempts: 3, BaseDelay: time.Hour, MaxDelay: time.Hour,
		Rand:    func() float64 { return 0.5 },
		OnRetry: func(int, time.Duration, error) { cancel() },
	}, nil)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = (&http.Client{Transport: rt}).Do(req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server hits = %d, want 1 (no attempt after cancel)", got)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancel during backoff took %v", d)
	}
}

func TestTransportPerAttemptTimeout(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // outlast the attempt's deadline
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	defer srv.Close()

	rt := fastTransport(nil)
	rt.Policy.MaxAttempts = 2
	rt.Policy.PerAttemptTimeout = 5 * time.Millisecond
	_, err := get(t, rt, srv.URL)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the attempt deadline", err)
	}
	if m := rt.Metrics(); m.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (timeouts are retryable)", m.Attempts)
	}
}

func TestTransportOnRetryObservesSchedule(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 2 {
			w.Header().Set("Retry-After", "7")
		}
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	var delays []time.Duration
	rt := fastTransport(nil)
	// Full jitter at coefficient 0.5 is half the backoff ceiling; the
	// second response's hint wins over jitter, capped at MaxRetryAfter.
	rt.Policy.Rand = func() float64 { return 0.5 }
	rt.Policy.MaxRetryAfter = time.Millisecond
	rt.Policy.OnRetry = func(attempt int, delay time.Duration, err error) {
		delays = append(delays, delay)
	}
	resp, err := get(t, rt, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	p := rt.Policy
	want := []time.Duration{p.Backoff(0) / 2, time.Millisecond, p.Backoff(2) / 2, p.Backoff(3) / 2}
	if len(delays) != len(want) {
		t.Fatalf("observed %d retries, want %d", len(delays), len(want))
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Errorf("retry %d delay = %v, want %v", i, delays[i], want[i])
		}
	}
}
