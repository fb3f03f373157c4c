package sdn

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestEventRingFIFO(t *testing.T) {
	r := NewEventRing(4)
	for i := 0; i < 3; i++ {
		if !r.Push(Event{Seq: i}) {
			t.Fatalf("push %d failed", i)
		}
	}
	got := r.PopAll(nil)
	if len(got) != 3 || got[0].Seq != 0 || got[2].Seq != 2 {
		t.Fatalf("popped %+v", got)
	}
	// Wrap around: the ring must stay FIFO across the seam.
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 3; i++ {
			if !r.Push(Event{Seq: cycle*10 + i}) {
				t.Fatalf("cycle %d push %d failed", cycle, i)
			}
		}
		got = r.PopAll(got[:0])
		for i, ev := range got {
			if ev.Seq != cycle*10+i {
				t.Fatalf("cycle %d: got %+v", cycle, got)
			}
		}
	}
}

func TestEventRingFull(t *testing.T) {
	r := NewEventRing(2)
	if !r.Push(Event{}) || !r.Push(Event{}) {
		t.Fatal("pushes within capacity failed")
	}
	if r.Push(Event{}) {
		t.Fatal("push beyond capacity succeeded")
	}
	if r.Len() != 2 || r.Cap() != 2 {
		t.Fatalf("len=%d cap=%d", r.Len(), r.Cap())
	}
}

func TestEventQueueDrainAndDrops(t *testing.T) {
	q := NewEventQueue(3)
	if n := q.EnqueueAll([]Event{{Seq: 1}, {Seq: 2}, {Seq: 3}, {Seq: 4}}); n != 3 {
		t.Fatalf("enqueued %d, want 3", n)
	}
	if q.Dropped() != 1 {
		t.Fatalf("dropped = %d", q.Dropped())
	}
	got := q.Drain(nil)
	if len(got) != 3 || got[0].Seq != 1 {
		t.Fatalf("drained %+v", got)
	}
	if !q.Enqueue(Event{Seq: 5}) {
		t.Fatal("enqueue after drain failed")
	}
	if got := q.Drain(got[:0]); len(got) != 1 || got[0].Seq != 5 {
		t.Fatalf("drained %+v", got)
	}
}

// batchTestApp deterministically exercises every liveness path: plain
// events, logged errors, stalls, and a crash at a chosen sequence.
func batchTestApp(crashAt int) App {
	n := 0
	return appFunc(func(c *Controller, ev Event) (int, error) {
		n++
		if crashAt > 0 && n == crashAt {
			return 1, fmt.Errorf("boom: %w", ErrCrash)
		}
		switch ev.Seq % 5 {
		case 1:
			return 3, errors.New("transient handler error")
		case 2:
			return 2000, nil // stall
		default:
			return ev.Seq%7 + 1, nil
		}
	})
}

// snapshot captures everything batching must not change.
type ctlSnapshot struct {
	State    State
	Stats    Stats
	Log      []Event
	ErrorLog []string
	Config   map[string]string
	Print    string
}

func snapshotController(c *Controller) ctlSnapshot {
	return ctlSnapshot{
		State:    c.State,
		Stats:    c.Stats,
		Log:      append([]Event(nil), c.Log...),
		ErrorLog: append([]string(nil), c.ErrorLog...),
		Config:   c.Config,
		Print:    fmt.Sprintf("%v|%+v|%d|%d", c.State, c.Stats, len(c.Log), len(c.ErrorLog)),
	}
}

func randomEvents(rng *rand.Rand, n int) []Event {
	kinds := []EventKind{EventConfig, EventNetwork, EventExternalCall, EventHardwareReboot}
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{
			Kind:  kinds[rng.Intn(len(kinds))],
			Key:   fmt.Sprintf("k%d", rng.Intn(8)),
			Value: fmt.Sprintf("v%d", rng.Intn(8)),
		}
	}
	return events
}

// ProcessBatch must be observationally identical to N sequential
// Submit calls — state, stats, log, error log, and fingerprint —
// including mid-batch middleware errors and crashes.
func TestProcessBatchEquivalentToSequential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		events := randomEvents(rng, n)
		crashAt := 0
		if seed%3 == 0 {
			crashAt = 1 + rng.Intn(n)
		}

		mw := func(next HandlerFunc) HandlerFunc {
			return func(c *Controller, ev Event) (int, error) {
				if ev.Seq%11 == 7 {
					return 1, errors.New("middleware rejected event")
				}
				return next(c, ev)
			}
		}

		netA, _ := LinearTopology(2)
		serial := NewController(netA, NewEnvironment("svc"), batchTestApp(crashAt), mw)
		var serialProcessed int
		var serialErr error
		for _, ev := range events {
			if err := serial.Submit(ev); err != nil {
				if serialErr == nil {
					serialErr = err
				}
				continue
			}
			serialProcessed++
		}

		netB, _ := LinearTopology(2)
		batched := NewController(netB, NewEnvironment("svc"), batchTestApp(crashAt), mw)
		batchProcessed, batchErr := batched.ProcessBatch(events)

		if batchProcessed != serialProcessed {
			t.Fatalf("seed %d: processed %d batched vs %d serial", seed, batchProcessed, serialProcessed)
		}
		if (batchErr == nil) != (serialErr == nil) ||
			(batchErr != nil && batchErr.Error() != serialErr.Error()) {
			t.Fatalf("seed %d: err %v batched vs %v serial", seed, batchErr, serialErr)
		}
		a, b := snapshotController(serial), snapshotController(batched)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: controllers diverged\nserial:  %+v\nbatched: %+v", seed, a, b)
		}
	}
}

// Splitting one event stream into arbitrary sub-batches must not
// change anything either (batch boundaries are invisible).
func TestProcessBatchSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	events := randomEvents(rng, 64)

	run := func(splits []int) ctlSnapshot {
		net, _ := LinearTopology(2)
		c := NewController(net, NewEnvironment("svc"), batchTestApp(0))
		rest := events
		for _, n := range splits {
			if n > len(rest) {
				n = len(rest)
			}
			if _, err := c.ProcessBatch(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		if _, err := c.ProcessBatch(rest); err != nil {
			t.Fatal(err)
		}
		return snapshotController(c)
	}

	want := run(nil) // one big batch
	for _, splits := range [][]int{{1}, {63}, {7, 9, 3}, {32, 32}, {1, 1, 1, 61}} {
		if got := run(splits); !reflect.DeepEqual(got, want) {
			t.Fatalf("splits %v diverged from single batch", splits)
		}
	}
}

func TestProcessBatchSingleAppendRegion(t *testing.T) {
	net, _ := LinearTopology(1)
	c := NewController(net, NewEnvironment(), batchTestApp(0))
	events := randomEvents(rand.New(rand.NewSource(7)), 100)
	c.ReserveLog(len(events))
	capBefore := cap(c.Log)
	if _, err := c.ProcessBatch(events); err != nil {
		t.Fatal(err)
	}
	if cap(c.Log) != capBefore {
		t.Fatalf("log reallocated mid-batch: cap %d -> %d", capBefore, cap(c.Log))
	}
	if len(c.Log) != len(events) {
		t.Fatalf("log len = %d, want %d", len(c.Log), len(events))
	}
}
