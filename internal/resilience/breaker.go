package resilience

import (
	"errors"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// The three breaker states.
const (
	// StateClosed passes every request, counting consecutive failures.
	StateClosed BreakerState = iota
	// StateOpen rejects requests until OpenTimeout elapses.
	StateOpen
	// StateHalfOpen admits a bounded number of probe requests to test
	// whether the dependency recovered.
	StateHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// ErrOpen is returned by Allow while the circuit is open (or while
// half-open with every probe slot taken).
var ErrOpen = errors.New("resilience: circuit open")

// RetryAfterHint makes a rejected call wait roughly one open period
// before its next attempt instead of burning retries against a circuit
// that cannot admit them yet.
type openError struct{ wait time.Duration }

func (e *openError) Error() string                 { return ErrOpen.Error() }
func (e *openError) Unwrap() error                 { return ErrOpen }
func (e *openError) RetryAfterHint() time.Duration { return e.wait }

// halfOpenProbes bounds concurrent half-open probes: one request tests
// the dependency while the rest wait out another open period.
const halfOpenProbes = 1

// BreakerConfig tunes a Breaker. Zero fields take the defaults.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips the
	// circuit (default 5).
	FailureThreshold int
	// SuccessThreshold is the consecutive half-open successes needed
	// to close again (default 2).
	SuccessThreshold int
	// OpenTimeout is how long the circuit stays open before admitting
	// probes (default 10s).
	OpenTimeout time.Duration
	// Now is the clock, injectable for tests.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.SuccessThreshold <= 0 {
		c.SuccessThreshold = 2
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 10 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a circuit breaker. Callers pair Allow with Record:
//
//	if err := b.Allow(); err != nil { return err }
//	err := doRequest()
//	b.Record(err == nil)
//
// Safe for concurrent use.
type Breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig

	state     BreakerState
	failures  int // consecutive failures while closed
	successes int // consecutive successes while half-open
	probes    int // in-flight half-open probes
	openedAt  time.Time

	opens      uint64
	rejections uint64
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// State reports the current state, applying the open→half-open
// transition if the open period has elapsed.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	return b.state
}

// maybeHalfOpen transitions open→half-open once OpenTimeout elapses.
// Callers must hold b.mu.
func (b *Breaker) maybeHalfOpen() {
	if b.state == StateOpen && b.cfg.Now().Sub(b.openedAt) >= b.cfg.OpenTimeout {
		b.state = StateHalfOpen
		b.probes = 0
		b.successes = 0
	}
}

// Allow asks to send one request. A nil return admits the request and
// must be matched by exactly one Record call; ErrOpen (carrying a
// Retry-After hint of the remaining open period) rejects it.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	switch b.state {
	case StateClosed:
		return nil
	case StateHalfOpen:
		if b.probes < halfOpenProbes {
			b.probes++
			return nil
		}
		b.rejections++
		return &openError{wait: b.cfg.OpenTimeout}
	default: // StateOpen
		b.rejections++
		wait := b.cfg.OpenTimeout - b.cfg.Now().Sub(b.openedAt)
		if wait < 0 {
			wait = 0
		}
		return &openError{wait: wait}
	}
}

// Record reports the outcome of a request previously admitted by
// Allow.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		if success {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	case StateHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if !success {
			b.trip()
			return
		}
		b.successes++
		if b.successes >= b.cfg.SuccessThreshold {
			b.state = StateClosed
			b.failures = 0
		}
	default: // StateOpen: a straggler from before the trip; ignore.
	}
}

// trip opens the circuit. Callers must hold b.mu.
func (b *Breaker) trip() {
	b.state = StateOpen
	b.openedAt = b.cfg.Now()
	b.failures = 0
	b.opens++
}

// Counts reports how many times the circuit opened and how many
// requests it rejected.
func (b *Breaker) Counts() (opens, rejections uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens, b.rejections
}
