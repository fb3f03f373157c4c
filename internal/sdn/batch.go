package sdn

import (
	"slices"
	"sync"
)

// EventRing is a fixed-capacity ring buffer of events: the backing
// array is allocated once and never grows, so steady-state enqueue and
// drain perform no allocation. It is not safe for concurrent use —
// EventQueue adds the locking.
type EventRing struct {
	buf   []Event
	head  int // index of the oldest event
	count int
}

// NewEventRing returns a ring holding at most capacity events.
func NewEventRing(capacity int) *EventRing {
	if capacity < 1 {
		capacity = 1
	}
	return &EventRing{buf: make([]Event, capacity)}
}

// Len returns the number of buffered events.
func (r *EventRing) Len() int { return r.count }

// Cap returns the fixed capacity.
func (r *EventRing) Cap() int { return len(r.buf) }

// Push appends ev, reporting false if the ring is full.
func (r *EventRing) Push(ev Event) bool {
	if r.count == len(r.buf) {
		return false
	}
	r.buf[(r.head+r.count)%len(r.buf)] = ev
	r.count++
	return true
}

// PopAll appends every buffered event to dst in FIFO order, empties
// the ring, and returns the extended slice.
func (r *EventRing) PopAll(dst []Event) []Event {
	for i := 0; i < r.count; i++ {
		dst = append(dst, r.buf[(r.head+i)%len(r.buf)])
	}
	r.head = 0
	r.count = 0
	return dst
}

// EventQueue is a mutex-guarded EventRing: producers enqueue under one
// lock acquisition per call, and a consumer drains every buffered
// event with a single lock acquisition — the batching primitive the
// controller's ProcessBatch consumes.
type EventQueue struct {
	mu      sync.Mutex
	ring    *EventRing
	dropped int
}

// NewEventQueue returns a queue over a fixed ring of the given
// capacity.
func NewEventQueue(capacity int) *EventQueue {
	return &EventQueue{ring: NewEventRing(capacity)}
}

// Enqueue adds one event, reporting false (and counting a drop) if the
// ring is full.
func (q *EventQueue) Enqueue(ev Event) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.ring.Push(ev) {
		q.dropped++
		return false
	}
	return true
}

// EnqueueAll adds events under a single lock acquisition and returns
// how many fit.
func (q *EventQueue) EnqueueAll(events []Event) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	var n int
	for _, ev := range events {
		if !q.ring.Push(ev) {
			q.dropped += len(events) - n
			return n
		}
		n++
	}
	return n
}

// Drain appends every buffered event to dst under a single lock
// acquisition and returns the extended slice.
func (q *EventQueue) Drain(dst []Event) []Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ring.PopAll(dst)
}

// Dropped returns how many events were rejected by a full ring. The
// queue keeps no copy of them: a caller that can resend, as the
// cluster's replication does on the next slot, defers them rather
// than losing them.
func (q *EventQueue) Dropped() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// ReserveLog grows the event log's capacity so the next n Submit calls
// append into a single pre-grown region without reallocating.
func (c *Controller) ReserveLog(n int) {
	c.Log = slices.Grow(c.Log, n)
}

// ProcessBatch submits events in order, exactly as n sequential Submit
// calls would — middleware runs per event, crashes drop the remainder
// of the batch into EventsDropped, error logging and liveness
// transitions are per event — but the log grows in one pre-reserved
// append region and callers amortize their own per-event overhead. It
// returns the number of events processed cleanly and the first error.
// Batching is mechanical, not semantic: controller state, log, and
// stats after ProcessBatch are byte-identical to the sequential loop.
func (c *Controller) ProcessBatch(events []Event) (int, error) {
	if len(events) == 0 {
		return 0, nil
	}
	c.ReserveLog(len(events))
	var processed int
	var firstErr error
	for _, ev := range events {
		if err := c.Submit(ev); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		processed++
	}
	return processed, firstErr
}
