package tracker

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func replicaSeed(t *testing.T, s *Store, n int) {
	t.Helper()
	base := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		if err := s.Put(Issue{
			ID: fmt.Sprintf("ONOS-%03d", i), Controller: ONOS,
			Title: "t", Severity: SeverityMajor, Status: StatusClosed,
			Created: base.Add(time.Duration(i) * time.Minute),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// encodeCanonical is the test replicas' encoder: the persistence
// encoding, which renders every field.
func encodeCanonical(iss *Issue) ([]byte, error) { return EncodeIssue(*iss) }

// issuesOf copies the issues of a replica page, for comparison with
// Store.List.
func issuesOf(page []Encoded) []Issue {
	out := make([]Issue, len(page))
	for i, e := range page {
		out[i] = *e.Issue
	}
	return out
}

// checkWire fails unless every entry's bytes are its issue's encoding.
func checkWire(t *testing.T, page []Encoded) {
	t.Helper()
	for _, e := range page {
		want, _ := encodeCanonical(e.Issue)
		if e.Err != nil || string(e.Wire) != string(want) {
			t.Errorf("%s: wire %q (err %v), want %q", e.Issue.ID, e.Wire, e.Err, want)
		}
	}
}

func TestReplicaMatchesStoreList(t *testing.T) {
	s := NewStore()
	replicaSeed(t, s, 57)
	r := NewReplica(s, encodeCanonical)
	queries := []Query{
		{},
		{Controller: ONOS},
		{Controller: FAUCET},
		{Status: StatusClosed, Offset: 10, Limit: 20},
		{MinSeverity: SeverityMajor, Offset: 50, Limit: 20},
		{Offset: 57},
		{Offset: 100},
		{Offset: -5, Limit: 3},
		{Limit: -1},
	}
	for _, q := range queries {
		wantIss, wantTotal := s.List(q)
		page, gotTotal := r.List(q)
		if gotTotal != wantTotal || !reflect.DeepEqual(issuesOf(page), wantIss) {
			t.Errorf("query %+v: replica diverged from store (%d vs %d issues)",
				q, len(page), len(wantIss))
		}
		checkWire(t, page)
	}
}

func TestReplicaGetServesFromIndex(t *testing.T) {
	s := NewStore()
	replicaSeed(t, s, 20)
	r := NewReplica(s, encodeCanonical)
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("ONOS-%03d", i)
		e, ok := r.Get(id)
		if !ok || e.Issue.ID != id {
			t.Fatalf("Get(%s) = %v, %v", id, e.Issue, ok)
		}
		checkWire(t, []Encoded{e})
	}
	if _, ok := r.Get("ONOS-999"); ok {
		t.Error("Get found an issue the store never held")
	}
}

func TestReplicaSeesWritesAfterRefresh(t *testing.T) {
	s := NewStore()
	replicaSeed(t, s, 3)
	r := NewReplica(s, encodeCanonical)
	if n := r.Len(); n != 3 {
		t.Fatalf("initial len = %d", n)
	}
	if err := s.Put(Issue{ID: "ONOS-new", Controller: ONOS, Title: "t",
		Created: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)}); err != nil {
		t.Fatal(err)
	}
	if n := r.Len(); n != 4 {
		t.Fatalf("len after write = %d, want 4 (version bump must trigger refresh)", n)
	}
	if _, ok := r.Get("ONOS-new"); !ok {
		t.Fatal("replica missing freshly written issue")
	}
}

// TestReplicaOldViewSurvivesEdit: views alias the store's issues, which
// is safe only because Store.Put installs a fresh *Issue instead of
// mutating the installed one. A page taken before an edit must keep
// both the old issue and its old bytes.
func TestReplicaOldViewSurvivesEdit(t *testing.T) {
	s := NewStore()
	replicaSeed(t, s, 4)
	r := NewReplica(s, encodeCanonical)
	old, _ := r.List(Query{})
	oldWire := make([]string, len(old))
	for i, e := range old {
		oldWire[i] = string(e.Wire)
	}
	mod := *old[1].Issue
	mod.Title = "rewritten"
	mod.Labels = []string{"edited"}
	if err := s.Put(mod); err != nil {
		t.Fatal(err)
	}
	for i, e := range old {
		if e.Issue.Title != "t" || e.Issue.Labels != nil || string(e.Wire) != oldWire[i] {
			t.Fatalf("old page entry %d changed after a store write: %+v %s", i, *e.Issue, e.Wire)
		}
	}
	cur, ok := r.Get(mod.ID)
	if !ok || cur.Issue.Title != "rewritten" || !strings.Contains(string(cur.Wire), "rewritten") {
		t.Fatalf("replica missed the edit: %+v %s", cur.Issue, cur.Wire)
	}
	checkWire(t, []Encoded{cur})
}

// TestReplicaRefreshReencodesOnlyReplacedIssues: the order-preserving
// fast path swaps in only the replaced issues; a creation-time change
// or a new ID falls back to a full rebuild that still reuses the bytes
// of every unchanged issue.
func TestReplicaRefreshReencodesOnlyReplacedIssues(t *testing.T) {
	s := NewStore()
	replicaSeed(t, s, 10)
	r := NewReplica(s, encodeCanonical)
	want := func(refreshes, encodes uint64) {
		t.Helper()
		if got := r.Stats(); got != (ReplicaStats{Refreshes: refreshes, Encodes: encodes}) {
			t.Fatalf("stats = %+v, want %d refreshes, %d encodes", got, refreshes, encodes)
		}
		page, total := r.List(Query{})
		wantIss, wantTotal := s.List(Query{})
		if total != wantTotal || !reflect.DeepEqual(issuesOf(page), wantIss) {
			t.Fatal("replica order diverged from store")
		}
		checkWire(t, page)
	}
	r.Len()
	want(1, 10)
	r.Len() // no write, no refresh
	want(1, 10)

	edit := func(id string, change func(*Issue)) {
		t.Helper()
		iss, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		change(&iss)
		if err := s.Put(iss); err != nil {
			t.Fatal(err)
		}
	}
	before := r.view.Load()
	edit("ONOS-004", func(iss *Issue) { iss.Title = "edited" })
	edit("ONOS-007", func(iss *Issue) { iss.Status = StatusOpen })
	r.Len()
	want(2, 12)
	if after := r.view.Load(); reflect.ValueOf(after.index).Pointer() != reflect.ValueOf(before.index).Pointer() {
		t.Error("fast path rebuilt the ID index")
	}

	// Moving an issue in time reorders the view: full rebuild, one encode.
	edit("ONOS-002", func(iss *Issue) { iss.Created = iss.Created.Add(time.Hour) })
	r.Len()
	want(3, 13)

	// A new ID: full rebuild, one encode.
	if err := s.Put(Issue{ID: "ONOS-000a", Controller: ONOS, Title: "n",
		Created: time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)}); err != nil {
		t.Fatal(err)
	}
	r.Len()
	want(4, 14)
}

// TestReplicaEditCopiesOnlyItsChunk: over several view chunks, with
// insertion order the reverse of listing order, an edit refreshes by
// copying only the chunk that holds the edited issue; the other chunks
// are shared with the old view, which keeps its issues and bytes, and
// the new view still matches Store.List.
func TestReplicaEditCopiesOnlyItsChunk(t *testing.T) {
	const n = 3*viewChunk + 5
	s := NewStore()
	base := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := n - 1; i >= 0; i-- {
		if err := s.Put(Issue{ID: fmt.Sprintf("ONOS-%03d", i), Controller: ONOS, Title: "t",
			Severity: Severity(1 + i%4), Created: base.Add(time.Duration(i) * time.Minute)}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReplica(s, encodeCanonical)
	r.Len()
	before := r.view.Load()
	edited := viewChunk + 3 // listing position of ONOS-067, in chunk 1
	iss, err := s.Get(fmt.Sprintf("ONOS-%03d", edited))
	if err != nil {
		t.Fatal(err)
	}
	iss.Title = "edited"
	if err := s.Put(iss); err != nil {
		t.Fatal(err)
	}
	r.Len()
	after := r.view.Load()
	if got := r.Stats(); got != (ReplicaStats{Refreshes: 2, Encodes: n + 1}) {
		t.Fatalf("stats = %+v, want 2 refreshes, %d encodes", got, n+1)
	}
	for c := range after.chunks {
		shared := &after.chunks[c][0] == &before.chunks[c][0]
		if shared != (c != edited/viewChunk) {
			t.Errorf("chunk %d: shared with the old view = %v", c, shared)
		}
	}
	if e := before.entry(edited); e.Issue.Title != "t" || strings.Contains(string(e.Wire), "edited") {
		t.Errorf("old view changed: %+v %s", *e.Issue, e.Wire)
	}
	if e := after.entry(edited); e.Issue.Title != "edited" {
		t.Errorf("new view missed the edit: %+v", *e.Issue)
	}
	for _, q := range []Query{{}, {Offset: viewChunk - 2, Limit: 5}, {MinSeverity: SeverityMajor, Offset: 40, Limit: 60}, {Offset: n - 1}} {
		wantIss, wantTotal := s.List(q)
		page, total := r.List(q)
		if total != wantTotal || !reflect.DeepEqual(issuesOf(page), wantIss) {
			t.Errorf("query %+v: replica diverged from store", q)
		}
		checkWire(t, page)
	}
}

// TestReplicaControllerEdit: a view whose issues share one controller
// cuts that controller's pages by position; an edit that moves one
// issue to another controller must end that shortcut, on the fast
// refresh path as well as the full one.
func TestReplicaControllerEdit(t *testing.T) {
	s := NewStore()
	replicaSeed(t, s, 2*viewChunk)
	r := NewReplica(s, encodeCanonical)
	check := func() {
		t.Helper()
		for _, q := range []Query{{Controller: ONOS}, {Controller: ONOS, Offset: 5, Limit: 70},
			{Controller: CORD}, {Offset: viewChunk, Limit: 3}, {Controller: ONOS, Offset: 1 << 62, Limit: 1 << 62}} {
			wantIss, wantTotal := s.List(q)
			page, total := r.List(q)
			if total != wantTotal || !reflect.DeepEqual(issuesOf(page), wantIss) {
				t.Fatalf("query %+v: replica has %d of %d, store %d of %d", q, len(page), total, len(wantIss), wantTotal)
			}
		}
	}
	check()
	iss, err := s.Get("ONOS-070")
	if err != nil {
		t.Fatal(err)
	}
	iss.Controller = CORD
	if err := s.Put(iss); err != nil {
		t.Fatal(err)
	}
	check()
	if got := r.Stats().Encodes; got != 2*viewChunk+1 {
		t.Fatalf("%d encodes, want the fast path's %d", got, 2*viewChunk+1)
	}
	if err := s.Put(Issue{ID: "ONOS-new", Controller: ONOS, Title: "t"}); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestReplicaKeepsEncodeErrors: an issue the encoder rejects stays in
// the view with its error, and the others keep their bytes.
func TestReplicaKeepsEncodeErrors(t *testing.T) {
	s := NewStore()
	replicaSeed(t, s, 3)
	bad := errors.New("no wire form")
	r := NewReplica(s, func(iss *Issue) ([]byte, error) {
		if iss.ID == "ONOS-001" {
			return nil, bad
		}
		return encodeCanonical(iss)
	})
	page, total := r.List(Query{})
	if total != 3 || len(page) != 3 {
		t.Fatalf("page of %d, total %d", len(page), total)
	}
	for _, e := range page {
		if (e.Err != nil) != (e.Issue.ID == "ONOS-001") || (e.Err != nil && !errors.Is(e.Err, bad)) {
			t.Errorf("%s: err %v", e.Issue.ID, e.Err)
		}
	}
}

// TestReplicaPublishNeverRegresses: a refresh that finishes after a
// newer view was published leaves the newer view in place.
func TestReplicaPublishNeverRegresses(t *testing.T) {
	s := NewStore()
	replicaSeed(t, s, 2)
	r := NewReplica(s, encodeCanonical)
	base := r.refresh()
	stale := r.build(base) // a slow refresh, still at base's version
	if err := s.Put(Issue{ID: "ONOS-new", Controller: ONOS, Title: "t"}); err != nil {
		t.Fatal(err)
	}
	newer := r.refresh()
	if got := r.publish(base, stale); got != newer || r.view.Load() != newer {
		t.Fatalf("stale view (version %d) replaced the newer one (version %d)", stale.version, newer.version)
	}
	if newer.version != s.Version() {
		t.Fatalf("view version %d, store %d", newer.version, s.Version())
	}
}

// TestReplicaConcurrentReadersAndWriters runs ingest of new and edited
// issues beside concurrent list and get traffic; under -race it
// checks that views never share mutable state with the store.
func TestReplicaConcurrentReadersAndWriters(t *testing.T) {
	s := NewStore()
	replicaSeed(t, s, 10)
	r := NewReplica(s, encodeCanonical)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Put(Issue{ID: fmt.Sprintf("W-%d", i), Controller: CORD,
				Title: "w", Created: base.Add(time.Duration(i) * time.Second)})
			_ = s.Put(Issue{ID: fmt.Sprintf("ONOS-%03d", i%10), Controller: ONOS,
				Title: fmt.Sprintf("edit %d", i), Created: time.Date(2019, 1, 1, 0, i%10, 0, 0, time.UTC)})
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				page, total := r.List(Query{Limit: 25})
				if len(page) > 25 || total < 10 {
					t.Errorf("inconsistent page: %d issues, total %d", len(page), total)
					return
				}
				e, ok := r.Get(fmt.Sprintf("ONOS-%03d", i%10))
				if !ok {
					t.Errorf("Get lost ONOS-%03d", i%10)
					return
				}
				if i%50 == 0 {
					checkWire(t, append(page, e))
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}
