// Package chaos is a deterministic, seed-driven fault-injection
// middleware for http.Handler — the SPIDER-style stateful fault and
// latency injection of PAPERS.md applied to this repo's own tracker
// simulators. Wrapping a trackerd handler in a chaos.Handler turns them
// into realistically flaky services: rate limits with Retry-After,
// bursts of 5xx, latency spikes, truncated response bodies, and
// dropped connections, all drawn from one seeded PRNG so a run is
// reproducible fault-for-fault.
//
// Determinism has one deliberate escape hatch: MaxConsecutive bounds
// how many error faults land back-to-back, so a client that retries at
// least MaxConsecutive+1 times is guaranteed to make progress. That is
// what lets the E21 experiment assert byte-identical mining results
// under chaos — the injected faults change the schedule, never the
// data.
package chaos

import (
	"bytes"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Defaults applied by Config.withDefaults.
const (
	DefaultRate    = 0.25
	DefaultLatency = 20 * time.Millisecond
)

// MaxConsecutive bounds back-to-back error faults: after this many,
// the next request is served cleanly. It is the progress guarantee
// retrying clients rely on.
const MaxConsecutive = 3

// burstLen is the maximum number of extra 5xx responses following an
// injected server error — trackers rarely fail exactly once.
const burstLen = 2

// Config tunes a chaos Handler. The zero value injects at the default
// rate with the default fault mix.
type Config struct {
	// Seed drives every injection decision; equal seeds and request
	// sequences produce identical fault schedules.
	Seed int64
	// Rate is the per-request fault probability in [0,1]
	// (default 0.25).
	Rate float64
	// RetryAfter is the wait advertised on injected 429s, truncated to
	// whole seconds on the wire (default 1s; 0 advertises "0").
	RetryAfter time.Duration
	// Latency is the upper bound of an injected latency spike
	// (default 20ms). Spikes delay the response but serve it intact.
	Latency time.Duration
}

func (c Config) withDefaults() Config {
	if c.Rate <= 0 {
		c.Rate = DefaultRate
	}
	if c.Rate > 1 {
		c.Rate = 1
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Latency <= 0 {
		c.Latency = DefaultLatency
	}
	return c
}

// Stats counts what a Handler injected.
type Stats struct {
	// Requests counts every request seen; Injected counts those that
	// received any injection (including latency spikes).
	Requests, Injected uint64
	// Per-kind injection counts. Faults = RateLimits + ServerErrors +
	// Truncations + Drops (the error-class injections).
	RateLimits, ServerErrors, Latencies, Truncations, Drops uint64
}

// Faults sums the error-class injections (everything but latency).
func (s Stats) Faults() uint64 {
	return s.RateLimits + s.ServerErrors + s.Truncations + s.Drops
}

// faultKind enumerates the injections.
type faultKind int

const (
	passThrough faultKind = iota
	faultLatency
	faultRateLimit
	faultServerError
	faultTruncate
	faultDrop
)

// Handler injects faults in front of next. Safe for concurrent use;
// decisions are serialized so a fixed request order yields a fixed
// fault schedule.
type Handler struct {
	next http.Handler
	cfg  Config

	mu          sync.Mutex
	rng         *rand.Rand
	burst       int // remaining 5xx responses in the current burst
	consecutive int // error faults injected back-to-back
	stats       Stats
}

var _ http.Handler = (*Handler)(nil)

// Wrap builds a chaos Handler injecting faults in front of next.
func Wrap(next http.Handler, cfg Config) *Handler {
	cfg = cfg.withDefaults()
	return &Handler{next: next, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats snapshots the injection counters.
func (h *Handler) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// decide draws the next injection from the seeded PRNG.
func (h *Handler) decide() (faultKind, time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats.Requests++

	// Forced progress: after MaxConsecutive error faults the request
	// goes through untouched, whatever the dice say.
	if h.consecutive >= MaxConsecutive {
		h.burst = 0
		h.consecutive = 0
		return passThrough, 0
	}
	// An in-progress 5xx burst continues without consulting the rate.
	if h.burst > 0 {
		h.burst--
		h.consecutive++
		h.stats.Injected++
		h.stats.ServerErrors++
		return faultServerError, 0
	}
	if h.rng.Float64() >= h.cfg.Rate {
		h.consecutive = 0
		return passThrough, 0
	}
	h.stats.Injected++
	switch faultKind(h.rng.Intn(5) + 1) {
	case faultLatency:
		// A latency spike serves the response intact, so it does not
		// count against the consecutive-fault progress bound.
		h.consecutive = 0
		h.stats.Latencies++
		spike := h.cfg.Latency/2 + time.Duration(h.rng.Int63n(int64(h.cfg.Latency/2)+1))
		return faultLatency, spike
	case faultRateLimit:
		h.consecutive++
		h.stats.RateLimits++
		return faultRateLimit, 0
	case faultServerError:
		h.consecutive++
		h.burst = h.rng.Intn(burstLen + 1)
		h.stats.ServerErrors++
		return faultServerError, 0
	case faultTruncate:
		h.consecutive++
		h.stats.Truncations++
		return faultTruncate, 0
	default:
		h.consecutive++
		h.stats.Drops++
		return faultDrop, 0
	}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	kind, spike := h.decide()
	switch kind {
	case faultLatency:
		t := time.NewTimer(spike)
		defer t.Stop()
		select {
		case <-t.C:
		case <-r.Context().Done():
			return
		}
		h.next.ServeHTTP(w, r)
	case faultRateLimit:
		w.Header().Set("Retry-After", strconv.Itoa(int(h.cfg.RetryAfter/time.Second)))
		http.Error(w, "chaos: injected rate limit", http.StatusTooManyRequests)
	case faultServerError:
		http.Error(w, "chaos: injected server error", http.StatusServiceUnavailable)
	case faultTruncate:
		h.truncate(w, r)
	case faultDrop:
		// ErrAbortHandler makes net/http sever the connection without
		// logging a stack — the client sees a mid-flight disconnect.
		panic(http.ErrAbortHandler)
	default:
		h.next.ServeHTTP(w, r)
	}
}

// truncate serves the real response's header with its full
// Content-Length but only half the body, then severs the connection,
// so the client fails mid-read with an unexpected EOF.
func (h *Handler) truncate(w http.ResponseWriter, r *http.Request) {
	rec := &recorder{header: make(http.Header), code: http.StatusOK}
	h.next.ServeHTTP(rec, r)
	body := rec.buf.Bytes()
	if len(body) < 2 {
		// Nothing worth cutting in half: drop the connection instead.
		panic(http.ErrAbortHandler)
	}
	for k, vs := range rec.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rec.code)
	_, _ = w.Write(body[:len(body)/2])
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	panic(http.ErrAbortHandler)
}

// recorder buffers a downstream response so truncate can replay a
// prefix of it.
type recorder struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

var _ http.ResponseWriter = (*recorder)(nil)

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { return r.buf.Write(b) }
