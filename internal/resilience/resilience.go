// Package resilience hardens the study's HTTP mining layer against
// the very fault class the paper catalogs: transient network and
// service failures. The §II-B pipeline mines ~800 bugs over JIRA- and
// GitHub-like REST APIs, and a single dropped connection or 429 must
// not abort the run.
//
// The package has three layers:
//
//   - Policy: the retry schedule — exponential backoff with full
//     jitter, a per-attempt timeout, an optional shared retry Budget,
//     and Retry-After honoring for any error that carries a server
//     hint.
//   - Breaker: a circuit breaker (closed → open → half-open) that stops
//     hammering a tracker that is persistently down.
//   - Transport: the http.RoundTripper middleware that runs the retry
//     loop under both, so any client gains retries, backoff and
//     breaking without changing its own code. See transport.go.
//
// All timing knobs accept test-friendly values and the jitter source is
// injectable, so retry schedules are reproducible under test.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Defaults applied by Policy.withDefaults.
const (
	DefaultMaxAttempts   = 4
	DefaultBaseDelay     = 100 * time.Millisecond
	DefaultMaxDelay      = 5 * time.Second
	DefaultMaxRetryAfter = 30 * time.Second
)

// Policy configures the retry loop. The zero value retries with the
// package defaults; fields override individually.
type Policy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4). 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff ceiling before the first retry; it
	// doubles per retry (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling (default 5s).
	MaxDelay time.Duration
	// PerAttemptTimeout bounds each individual attempt; 0 leaves the
	// caller's context deadline in charge.
	PerAttemptTimeout time.Duration
	// MaxRetryAfter caps how long a server-provided Retry-After hint
	// is honored (default 30s), so a hostile header cannot stall the
	// miner indefinitely.
	MaxRetryAfter time.Duration
	// Budget, when set, is consulted before every retry; exhausting it
	// fails the call with ErrBudget. Budgets may be shared across many
	// calls to bound a whole mining run's retry volume.
	Budget *Budget
	// Rand supplies the jitter coefficient in [0,1). nil uses a
	// process-wide seeded source; tests inject a deterministic one.
	Rand func() float64
	// OnRetry, when set, observes every scheduled retry.
	OnRetry func(attempt int, delay time.Duration, err error)
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.MaxRetryAfter <= 0 {
		p.MaxRetryAfter = DefaultMaxRetryAfter
	}
	if p.Rand == nil {
		p.Rand = globalFloat64
	}
	return p
}

// globalFloat64 is the default jitter source, locked because Policy
// values may be shared across goroutines.
var (
	globalMu  sync.Mutex
	globalRng = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func globalFloat64() float64 {
	globalMu.Lock()
	defer globalMu.Unlock()
	return globalRng.Float64()
}

// Backoff returns the pre-jitter delay ceiling for the given retry
// (0-based): min(MaxDelay, BaseDelay·2^retry).
func (p Policy) Backoff(retry int) time.Duration {
	p = p.withDefaults()
	d := p.BaseDelay
	for i := 0; i < retry; i++ {
		d *= 2
		if d >= p.MaxDelay || d <= 0 { // <= 0 guards overflow
			return p.MaxDelay
		}
	}
	if d > p.MaxDelay {
		return p.MaxDelay
	}
	return d
}

// Delay computes the wait before the given retry (0-based): the
// server's Retry-After hint when one is present (capped at
// MaxRetryAfter), otherwise full jitter over the backoff ceiling —
// rand·ceiling, the AWS "full jitter" scheme that decorrelates
// stampeding clients.
func (p Policy) Delay(retry int, hint time.Duration) time.Duration {
	p = p.withDefaults()
	if hint > 0 {
		if hint > p.MaxRetryAfter {
			return p.MaxRetryAfter
		}
		return hint
	}
	return time.Duration(p.Rand() * float64(p.Backoff(retry)))
}

// Retry loop failures.
var (
	// ErrExhausted wraps the last error once every attempt is spent.
	ErrExhausted = errors.New("resilience: attempts exhausted")
	// ErrBudget reports that the shared retry budget ran dry.
	ErrBudget = errors.New("resilience: retry budget exhausted")
)

// StatusError reports a retryable-class HTTP response (429 or 5xx),
// carrying any Retry-After hint the server sent.
type StatusError struct {
	Code       int
	Status     string
	URL        string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("resilience: %s returned %s", e.URL, e.Status)
}

// RetryAfterHint exposes the server's wait hint to the retry loop.
func (e *StatusError) RetryAfterHint() time.Duration { return e.RetryAfter }

// RetryableStatus reports whether an HTTP status code signals a
// transient condition: 429 and the 5xx family except 501.
func RetryableStatus(code int) bool {
	if code == http.StatusTooManyRequests {
		return true
	}
	return code >= 500 && code <= 599 && code != http.StatusNotImplemented
}

// hinter is any error carrying a server-provided wait hint.
type hinter interface{ RetryAfterHint() time.Duration }

// hintFrom extracts a Retry-After hint from an error chain.
func hintFrom(err error) time.Duration {
	var h hinter
	if errors.As(err, &h) {
		return h.RetryAfterHint()
	}
	return 0
}

// Sleep waits for d or until ctx is done, whichever comes first.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ParseRetryAfter parses an HTTP Retry-After header value — integer
// seconds or an HTTP date — into a wait duration relative to now. The
// boolean reports whether the value parsed; negative waits clamp to 0.
func ParseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// Budget bounds the retry volume of a whole mining run: every initial
// request deposits, every retry withdraws, and withdrawals are allowed
// while retries < floor + ratio·requests. The floor keeps short runs
// from starving; the ratio keeps long runs from amplifying a tracker
// outage into a retry storm. Safe for concurrent use.
type Budget struct {
	mu       sync.Mutex
	floor    int
	ratio    float64
	requests int
	retries  int
	denied   int
}

// NewBudget returns a budget allowing floor retries outright plus
// ratio extra retries per request issued.
func NewBudget(floor int, ratio float64) *Budget {
	if floor < 0 {
		floor = 0
	}
	if ratio < 0 {
		ratio = 0
	}
	return &Budget{floor: floor, ratio: ratio}
}

// Deposit records one initial (non-retry) request.
func (b *Budget) Deposit() {
	b.mu.Lock()
	b.requests++
	b.mu.Unlock()
}

// Withdraw requests permission for one retry.
func (b *Budget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.retries < b.floor+int(b.ratio*float64(b.requests)) {
		b.retries++
		return true
	}
	b.denied++
	return false
}

// Stats reports the budget's counters: requests deposited, retries
// granted, and retries denied.
func (b *Budget) Stats() (requests, retries, denied int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.requests, b.retries, b.denied
}
