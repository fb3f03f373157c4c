package sdn

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// followRejectMW fails some events with a logged error, so Follow's
// per-event middleware and error paths are exercised.
func followRejectMW(next HandlerFunc) HandlerFunc {
	return func(c *Controller, ev Event) (int, error) {
		if ev.Seq%11 == 7 {
			return 1, errors.New("middleware rejected event")
		}
		return next(c, ev)
	}
}

func followTestController(crashAt int) *Controller {
	net, _ := LinearTopology(2)
	return NewController(net, NewEnvironment("svc"), batchTestApp(crashAt), followRejectMW)
}

// submitAll logs events on c one Submit at a time.
func submitAll(t *testing.T, c *Controller, events []Event) {
	t.Helper()
	for _, ev := range events {
		if err := c.Submit(ev); err != nil && !errors.Is(err, ErrCrash) {
			t.Fatal(err)
		}
	}
}

// Follow must leave a follower exactly as ProcessBatch over the same
// entries leaves it — state, stats, log, error log, config, processed
// count and first error — from every starting point: an empty log, a
// log adopted from the leader before it grew again, a copied prefix,
// and a log that diverges from the leader's. Some followers crash
// mid-catch-up.
func TestFollowMatchesProcessBatch(t *testing.T) {
	paths := map[FollowPath]int{}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events := randomEvents(rng, 20+rng.Intn(120))
		crashAt := 0
		if seed%5 == 0 {
			crashAt = 1 + rng.Intn(len(events))
		}
		mode := int(seed % 4)
		k := 1 + rng.Intn(len(events)/2)

		leader := followTestController(0)
		submitAll(t, leader, events[:k])
		f, ref := followTestController(crashAt), followTestController(crashAt)
		switch mode {
		case 1: // adopted earlier
			f.Follow(leader, k)
			ref.ProcessBatch(leader.Log[:k])
			if f.State != StateCrashed && (&f.Log[0] != &leader.Log[0] || cap(f.Log) != len(f.Log)) {
				t.Fatalf("seed %d: Follow copied the log instead of adopting it, capped", seed)
			}
		case 2: // a copied prefix
			f.ProcessBatch(leader.Log[:k])
			ref.ProcessBatch(leader.Log[:k])
		case 3: // diverged
			div := randomEvents(rng, k)
			for i := range div {
				div[i].Key = fmt.Sprintf("diverged%d", i)
			}
			f.ProcessBatch(div)
			ref.ProcessBatch(div)
		}
		submitAll(t, leader, events[k:])

		to := len(f.Log) + 1 + rng.Intn(len(leader.Log)-len(f.Log))
		path, n, err := f.Follow(leader, to)
		wantN, wantErr := ref.ProcessBatch(leader.Log[len(ref.Log):to])
		paths[path]++
		if n != wantN || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: Follow = %d, %v; ProcessBatch = %d, %v", seed, n, err, wantN, wantErr)
		}
		if got, want := snapshotController(f), snapshotController(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (mode %d, %v): follower diverged\nfollow: %+v\ncopy:   %+v", seed, mode, path, got, want)
		}
		if want := map[int]FollowPath{0: FollowAdopted, 2: FollowCompared, 3: FollowCopied}[mode]; want != 0 && path != want {
			t.Fatalf("seed %d: mode %d caught up by %v, want %v", seed, mode, path, want)
		}
	}
	for _, p := range []FollowPath{FollowAdopted, FollowCompared, FollowCopied} {
		if paths[p] == 0 {
			t.Fatalf("no case took the %v path: %v", p, paths)
		}
	}
}

// A follower replaying traffic forwards nothing, and its flow tables,
// learned MACs, log and stats equal a ProcessBatch replay's.
func TestFollowForwardsNothing(t *testing.T) {
	events := l2Punts(rand.New(rand.NewSource(3)), 90)
	lnet, _ := LinearTopology(3)
	leader := NewController(lnet, NewEnvironment(), NewL2Switch(nil))
	submitAll(t, leader, events)
	fnet, _ := LinearTopology(3)
	fapp := NewL2Switch(nil)
	f := NewController(fnet, NewEnvironment(), fapp)
	rnet, _ := LinearTopology(3)
	rapp := NewL2Switch(nil)
	ref := NewController(rnet, NewEnvironment(), rapp)
	for _, cut := range []int{30, 31, 90} {
		if path, _, err := f.Follow(leader, cut); path != FollowAdopted || err != nil {
			t.Fatalf("Follow to %d = %v, %v", cut, path, err)
		}
		if _, err := ref.ProcessBatch(leader.Log[len(ref.Log):cut]); err != nil {
			t.Fatal(err)
		}
	}
	if len(fnet.PacketIns) != 0 || len(fnet.Deliveries) != 0 {
		t.Fatalf("Follow forwarded: %d punts, %d deliveries", len(fnet.PacketIns), len(fnet.Deliveries))
	}
	if !reflect.DeepEqual(snapshotController(f), snapshotController(ref)) {
		t.Fatal("follower diverged from the ProcessBatch replay")
	}
	if !reflect.DeepEqual(fapp.Snapshot(), rapp.Snapshot()) {
		t.Fatal("learned MAC tables diverged")
	}
	for _, dpid := range fnet.Switches() {
		a, _ := fnet.Switch(dpid)
		b, _ := rnet.Switch(dpid)
		if !reflect.DeepEqual(a.Table.Entries(), b.Table.Entries()) {
			t.Fatalf("switch %d flow tables diverged", dpid)
		}
	}
}

// A follower that adopted part of the leader's log and then appends
// its own events (a standby promoted while it lagged) changes no
// entry the leader holds, and the leader's appends change nothing the
// follower holds.
func TestFollowerAppendsNeverReachLeader(t *testing.T) {
	leader := followTestController(0)
	submitAll(t, leader, randomEvents(rand.New(rand.NewSource(5)), 10))
	leader.ReserveLog(20) // spare room, so no append below reallocates the leader
	before := append([]Event(nil), leader.Log...)

	f := followTestController(0)
	f.Follow(leader, 5)
	submitAll(t, f, []Event{{Kind: EventConfig, Key: "promoted", Value: "1"}})
	if !reflect.DeepEqual(leader.Log, before) {
		t.Fatalf("a lagging follower's append rewrote the leader's log:\n%+v\nwant %+v", leader.Log, before)
	}

	g := followTestController(0)
	g.Follow(leader, len(leader.Log))
	seen := append([]Event(nil), g.Log...)
	submitAll(t, leader, []Event{{Kind: EventConfig, Key: "leader", Value: "2"}})
	submitAll(t, g, []Event{{Kind: EventConfig, Key: "follower", Value: "3"}})
	if !reflect.DeepEqual(g.Log[:len(seen)], seen) {
		t.Fatal("the leader's append rewrote the follower's log")
	}
	if got := leader.Log[len(before)]; got.Key != "leader" {
		t.Fatalf("the follower's append rewrote the leader's entry %d: %+v", len(before), got)
	}
}

// After Restart(false) the leader's log no longer extends the array it
// once grew from, so a follower still holding that array must not be
// adopted in O(1): here the restarted leader has adopted another
// controller's different log, and the follower is copied.
func TestFollowAfterLeaderRestartIsNotAdopted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	leader := followTestController(0)
	submitAll(t, leader, randomEvents(rng, 6))
	f := followTestController(0)
	f.Follow(leader, len(leader.Log))
	held := append([]Event(nil), f.Log...)
	for c := cap(leader.Log); cap(leader.Log) == c; {
		submitAll(t, leader, randomEvents(rng, 1))
	}
	if leader.grewLen < len(f.Log) || leader.grewFrom.Value() != &f.Log[0] {
		t.Fatal("setup: the leader did not record growing from the follower's array")
	}

	leader.Restart(false)
	other := followTestController(0)
	other2 := randomEvents(rng, 12)
	for i := range other2 {
		other2[i].Key = fmt.Sprintf("other%d", i)
	}
	submitAll(t, other, other2)
	leader.Follow(other, len(other.Log))

	path, _, _ := f.Follow(leader, len(leader.Log))
	if path != FollowCopied {
		t.Fatalf("follower of a restarted leader caught up by %v, want %v", path, FollowCopied)
	}
	if !reflect.DeepEqual(f.Log[:len(held)], held) {
		t.Fatal("the follower's own entries were replaced")
	}
}

// A follower that lags across two or more leader regrowths holds an
// array the leader no longer records, so the prefix is proven by
// comparison.
func TestFollowLaggingTwoRegrowthsCompares(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	leader := followTestController(0)
	submitAll(t, leader, randomEvents(rng, 8))
	f, ref := followTestController(0), followTestController(0)
	f.Follow(leader, len(leader.Log))
	ref.ProcessBatch(leader.Log)
	for grows := 0; grows < 2; {
		c := cap(leader.Log)
		submitAll(t, leader, randomEvents(rng, 1))
		if cap(leader.Log) != c {
			grows++
		}
	}
	path, n, err := f.Follow(leader, len(leader.Log))
	wantN, wantErr := ref.ProcessBatch(leader.Log[len(ref.Log):])
	if path != FollowCompared {
		t.Fatalf("lagging follower caught up by %v, want %v", path, FollowCompared)
	}
	if n != wantN || fmt.Sprint(err) != fmt.Sprint(wantErr) ||
		!reflect.DeepEqual(snapshotController(f), snapshotController(ref)) {
		t.Fatal("compared catch-up diverged from ProcessBatch")
	}
	if &f.Log[0] != &leader.Log[0] {
		t.Fatal("a proven prefix was copied instead of adopted")
	}
}
