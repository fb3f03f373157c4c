package sdn

import "sync"

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

// ReserveLog makes room in the event log for n more events, so the
// next n Submit calls append without reallocating. A log that must
// grow gets room for half its length again, or for n more events if
// that is more, so each logged event is copied about twice however
// long the log gets; append's 1.25x steps for large slices copy it
// about four times. Growing by half rather than doubling caps the
// spare slots at half the log, which matters because every replica
// holds a whole log.
func (c *Controller) ReserveLog(n int) {
	if need := len(c.Log) + n; need > cap(c.Log) {
		log := make([]Event, len(c.Log), max(need, len(c.Log)+len(c.Log)/2))
		copy(log, c.Log)
		c.Log = log
	}
}

// ProcessBatch applies events another replica already served: a
// standby catching up on the primary's log, or a promoted replica
// replaying a deposed primary's unshipped tail. It submits them in
// order, exactly as n sequential Submit calls would — middleware runs
// per event, crashes drop the remainder of the batch into
// EventsDropped, error logging and liveness transitions are per event
// — with one difference: the packet-outs the events cause are
// validated (switch lookup and packet decoding, failing as
// ApplyPacketOut does) but not forwarded, because the serving replica
// already delivered them. Forwarding changes no flow table, port or
// app state, so controller state, log and stats after ProcessBatch are
// byte-identical to the sequential loop; only the network's PacketIns
// and Deliveries stay as they were. It returns the number of events
// processed cleanly and the first error.
func (c *Controller) ProcessBatch(events []Event) (int, error) {
	if len(events) == 0 {
		return 0, nil
	}
	c.ReserveLog(len(events))
	c.Net.replaying = true
	defer func() { c.Net.replaying = false }()
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
