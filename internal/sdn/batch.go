package sdn

import (
	"reflect"
	"weak"
)

// ReserveLog makes room in the event log for n more events, so the
// next n Submit calls append without reallocating. A log that must
// grow gets room for half its length again, or for n more events if
// that is more, so each logged event is copied about twice however
// long the log gets; append's 1.25x steps for large slices copy it
// about four times. Growing by half rather than doubling caps the
// spare slots at half the log, which matters because a follower
// adopting it keeps the superseded array alive until its next
// catch-up.
//
// A growth records the array it copied out of and how many events it
// copied, so Follow can prove in O(1) that a follower still holding
// that array holds a prefix of the new log. The record is a weak
// pointer: the controller itself never keeps its old array alive.
func (c *Controller) ReserveLog(n int) {
	if need := len(c.Log) + n; need > cap(c.Log) {
		log := make([]Event, len(c.Log), max(need, len(c.Log)+len(c.Log)/2))
		copy(log, c.Log)
		c.grewFrom, c.grewLen = weak.Pointer[Event]{}, 0
		if len(c.Log) > 0 {
			c.grewFrom, c.grewLen = weak.Make(&c.Log[0]), len(c.Log)
		}
		c.Log = log
	}
}

// ProcessBatch applies events another replica already served: a
// standby catching up on a log it does not share, or a promoted
// replica replaying a deposed primary's unshipped tail. It submits
// them in order, exactly as n sequential Submit calls would —
// middleware runs per event, crashes drop the remainder of the batch
// into EventsDropped, error logging and liveness transitions are per
// event — with one difference: the packet-outs the events cause are
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

// FollowPath says how Follow caught a follower up.
type FollowPath int

// FollowPath values.
const (
	// FollowAdopted: the follower's log was proven a prefix of the
	// leader's in O(1) — it was empty, or it shares the leader's
	// array, or the array the leader last grew from — and the
	// follower adopted the leader's entries.
	FollowAdopted FollowPath = iota + 1
	// FollowCompared: the O(1) proof failed, an element-wise
	// comparison proved the prefix, and the follower adopted.
	FollowCompared
	// FollowCopied: the logs diverge, so the follower applied the
	// leader's entries through ProcessBatch, copying them.
	FollowCopied
)

func (p FollowPath) String() string {
	switch p {
	case FollowAdopted:
		return "adopted"
	case FollowCompared:
		return "compared"
	case FollowCopied:
		return "copied"
	default:
		return "none"
	}
}

// Follow catches c up on leader.Log[len(c.Log):to] with exactly
// ProcessBatch's semantics — middleware runs per event, packet-outs
// are validated but not forwarded, a crash drops the rest into
// EventsDropped with ErrNotRunning, and the processed count and first
// error are the same — but without copying the events when c's log is
// a prefix of the leader's. Then c adopts the leader's entries: after
// each logged event, c.Log is leader.Log[:i+1:i+1]. Submit stamps
// every logged event's Seq with its index, so the adopted entry is the
// event Submit would have logged. The capacity cap makes c's own next
// append reallocate, so it can never write into the leader's array.
//
// Adoption is sound because logs are append-only (see
// Controller.Log): no entry below any slice's length is ever
// rewritten, and only the controller that allocated an array appends
// to it, past the end of every slice of it handed out. A follower pins
// at most the one superseded leader array it holds until its next
// catch-up.
//
// It returns how the prefix was proven (0 when there was nothing to
// apply), the number of events processed cleanly and the first error.
func (c *Controller) Follow(leader *Controller, to int) (FollowPath, int, error) {
	to = min(to, len(leader.Log))
	from := len(c.Log)
	if to <= from {
		return 0, 0, nil
	}
	path := c.provePrefix(leader)
	if path == FollowCopied {
		n, err := c.ProcessBatch(leader.Log[from:to])
		return path, n, err
	}
	c.Net.replaying = true
	defer func() { c.Net.replaying = false }()
	var processed int
	var firstErr error
	for i := from; i < to; i++ {
		if c.State == StateCrashed {
			c.Stats.EventsDropped += to - i
			if firstErr == nil {
				firstErr = ErrNotRunning
			}
			break
		}
		c.Log = leader.Log[: i+1 : i+1]
		if err := c.process(leader.Log[i]); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		processed++
	}
	return path, processed, firstErr
}

// provePrefix reports how c.Log is proven a prefix of leader.Log, or
// FollowCopied when it is not one. The caller ensures the leader's log
// is longer.
func (c *Controller) provePrefix(leader *Controller) FollowPath {
	n := len(c.Log)
	if n == 0 {
		return FollowAdopted
	}
	base := &c.Log[0]
	if base == &leader.Log[0] || (n <= leader.grewLen && base == leader.grewFrom.Value()) {
		return FollowAdopted
	}
	for i := range c.Log {
		if !sameLogged(&c.Log[i], &leader.Log[i]) {
			return FollowCopied
		}
	}
	return FollowCompared
}

// sameLogged reports whether two logged events are the same
// submission. Messages compare as interface values: the pointer
// messages the codec and the pump produce compare by identity, and a
// message held by value that cannot be compared proves nothing.
func sameLogged(a, b *Event) bool {
	if a.Seq != b.Seq || a.Kind != b.Kind || a.Key != b.Key || a.Value != b.Value ||
		a.Service != b.Service || a.DPID != b.DPID {
		return false
	}
	if a.Msg == nil || b.Msg == nil {
		return a.Msg == nil && b.Msg == nil
	}
	t := reflect.TypeOf(a.Msg)
	return t == reflect.TypeOf(b.Msg) && t.Comparable() && a.Msg == b.Msg
}
