package sdn

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sdnbugs/internal/openflow"
)

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

	// Traffic through the learning switch: the sequential controller
	// forwards every packet-out, the batched one forwards none, and
	// flow tables, learned MACs, log, stats and errors still agree.
	// Every fourth event also sends a packet-out that fails validation
	// (unknown switch or a short frame), which must fail the same way.
	for seed := int64(1); seed <= 10; seed++ {
		events := l2Punts(rand.New(rand.NewSource(seed)), 40+int(seed)*10)
		badOut := func(next HandlerFunc) HandlerFunc {
			return func(c *Controller, ev Event) (int, error) {
				cost, err := next(c, ev)
				if err == nil && ev.Seq%4 == 3 {
					po := openflow.PacketOut{DatapathID: 99, Data: ev.Msg.(*openflow.PacketIn).Data}
					if ev.Seq%8 == 7 {
						po = openflow.PacketOut{DatapathID: 1, Data: []byte{1, 2, 3}}
					}
					_, err = c.Net.ApplyPacketOut(po)
				}
				return cost, err
			}
		}
		netA, _ := LinearTopology(3)
		appA := NewL2Switch(nil)
		serial := NewController(netA, NewEnvironment(), appA, badOut)
		for _, ev := range events {
			if err := serial.Submit(ev); err != nil {
				t.Fatalf("seed %d: serial submit: %v", seed, err)
			}
		}
		netB, _ := LinearTopology(3)
		appB := NewL2Switch(nil)
		batched := NewController(netB, NewEnvironment(), appB, badOut)
		if n, err := batched.ProcessBatch(events); err != nil || n != len(events) {
			t.Fatalf("seed %d: ProcessBatch = %d, %v", seed, n, err)
		}
		if len(netA.PacketIns) == 0 || len(netA.Deliveries) == 0 {
			t.Fatalf("seed %d: the sequential run forwarded nothing", seed)
		}
		if len(netB.PacketIns) != 0 || len(netB.Deliveries) != 0 {
			t.Fatalf("seed %d: ProcessBatch forwarded: %d punts, %d deliveries",
				seed, len(netB.PacketIns), len(netB.Deliveries))
		}
		a, b := snapshotController(serial), snapshotController(batched)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: controllers diverged\nserial:  %+v\nbatched: %+v", seed, a, b)
		}
		if a.Stats.ErrorsLogged == 0 {
			t.Fatalf("seed %d: no packet-out failed validation", seed)
		}
		if !reflect.DeepEqual(appA.Snapshot(), appB.Snapshot()) {
			t.Fatalf("seed %d: learned MAC tables diverged", seed)
		}
		for _, dpid := range netA.Switches() {
			swA, _ := netA.Switch(dpid)
			swB, _ := netB.Switch(dpid)
			if !reflect.DeepEqual(swA.Table.Entries(), swB.Table.Entries()) {
				t.Fatalf("seed %d: switch %d flow tables diverged", seed, dpid)
			}
		}
	}
}

// l2Punts draws n table-miss punts on LinearTopology(3), a third of
// them broadcasts and the rest unicasts between its hosts.
func l2Punts(rng *rand.Rand, n int) []Event {
	events := make([]Event, n)
	for i := range events {
		d := 1 + rng.Intn(3)
		pkt := Packet{EthSrc: uint64(0x10 + d), EthDst: BroadcastMAC, EthType: 0x0806}
		if rng.Intn(3) > 0 {
			pkt.EthDst, pkt.EthType = uint64(0x11+rng.Intn(3)), 0x0800
		}
		events[i] = Event{Kind: EventNetwork, Msg: &openflow.PacketIn{
			DatapathID: uint64(d), InPort: 1, Data: EncodePacket(pkt)}}
	}
	return events
}

// A batch of broadcast punts replays without forwarding: the flood
// packet-outs punt and deliver nothing, yet the batch learns every
// source MAC.
func TestProcessBatchForwardsNothing(t *testing.T) {
	net, _ := LinearTopology(3)
	app := NewL2Switch(nil)
	c := NewController(net, NewEnvironment(), app)
	var events []Event
	for d := 1; d <= 3; d++ {
		events = append(events, Event{Kind: EventNetwork, Msg: &openflow.PacketIn{
			DatapathID: uint64(d), InPort: 1,
			Data: EncodePacket(Packet{EthSrc: uint64(0x10 + d), EthDst: BroadcastMAC, EthType: 0x0806})}})
	}
	if n, err := c.ProcessBatch(events); err != nil || n != len(events) {
		t.Fatalf("ProcessBatch = %d, %v", n, err)
	}
	if len(net.PacketIns) != 0 || len(net.Deliveries) != 0 {
		t.Fatalf("replay forwarded: %d punts, %d deliveries", len(net.PacketIns), len(net.Deliveries))
	}
	for d := uint64(1); d <= 3; d++ {
		if app.KnownMACs(d) != 1 {
			t.Fatalf("switch %d learned %d MACs, want 1", d, app.KnownMACs(d))
		}
	}
	// Outside a batch the same network forwards again.
	if err := c.Submit(events[0]); err != nil {
		t.Fatal(err)
	}
	if len(net.PacketIns) == 0 {
		t.Fatal("Submit after a batch flooded no punt downstream")
	}
}

// A log grown one Submit at a time grows by half each time it is
// full, so n submissions reallocate it O(log n) times and copy about
// 2n events in all.
func TestSubmitLogGrowthAmortized(t *testing.T) {
	net, _ := LinearTopology(1)
	c := NewController(net, NewEnvironment(), appFunc(func(*Controller, Event) (int, error) { return 1, nil }))
	const n = 100_000
	grows, copied, last := 0, 0, cap(c.Log)
	for i := 0; i < n; i++ {
		if err := c.Submit(Event{Kind: EventConfig}); err != nil {
			t.Fatal(err)
		}
		if cap(c.Log) != last {
			grows++
			copied += i
			last = cap(c.Log)
		}
	}
	// log_1.5(100k) is 28.4; allow a few extra small-size steps, where
	// half the length rounds down to one slot or none.
	if limit := 32; grows > limit {
		t.Fatalf("%d submits reallocated the log %d times, want <= %d", n, grows, limit)
	}
	if limit := 3 * n; copied > limit {
		t.Fatalf("%d submits copied %d logged events, want <= %d", n, copied, limit)
	}
	// A reservation that fits leaves the log alone; one that does not
	// grows it by at least half.
	before := cap(c.Log)
	c.ReserveLog(before - len(c.Log))
	if cap(c.Log) != before {
		t.Fatalf("a fitting ReserveLog reallocated: cap %d -> %d", before, cap(c.Log))
	}
	c.ReserveLog(cap(c.Log) - len(c.Log) + 1)
	if 2*cap(c.Log) < 3*len(c.Log) {
		t.Fatalf("ReserveLog grew cap to %d for len %d, want at least 1.5x", cap(c.Log), len(c.Log))
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
