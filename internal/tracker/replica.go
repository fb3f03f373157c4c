package tracker

import (
	"slices"
	"sort"
	"sync/atomic"
)

// Replica is a snapshot-serving read view over a Store. Reads are
// answered from an immutable, pre-sorted view held in an atomic
// pointer, so readers never contend on the store's lock: writers keep
// journaling and Putting at full speed while hundreds of concurrent
// miners page through the same data. The replica refreshes itself
// lazily — a reader that notices the store's version moved builds the
// next view and publishes it for everyone; until then readers serve
// the previous consistent view, which is exactly the staleness
// contract of a read replica.
//
// Every view also holds each issue's wire encoding, made once by the
// encoder the replica was built with, so a handler splices bytes into
// its response instead of re-encoding unchanged issues per request.
//
// Views alias the store's issues. Store.Put always installs a fresh
// *Issue and never mutates one it has installed, so an installed issue
// is immutable and its pointer names one version of it: a refresh
// reuses the previous view's encoding of every issue whose pointer is
// unchanged, and an edit re-encodes one issue, not the shard.
type Replica struct {
	src    *Store
	encode func(*Issue) ([]byte, error)
	view   atomic.Pointer[replicaView]

	refreshes, encodes atomic.Uint64
}

// Encoded is one issue of a replica view with its wire encoding, or
// the encoder's error for it. Issue and Wire are shared by every
// reader and must not be modified.
type Encoded struct {
	Issue *Issue
	Wire  []byte
	Err   error
}

// ReplicaStats counts a replica's work since it was created.
type ReplicaStats struct {
	// Refreshes is the number of views built.
	Refreshes uint64
	// Encodes is the number of issues passed to the encoder.
	Encodes uint64
}

// replicaView is one immutable snapshot: every issue with its
// encoding, in the canonical listing order (creation time, then ID).
type replicaView struct {
	version uint64
	entries []Encoded
	index   map[string]int // ID → position in entries
}

// NewReplica returns a replica over src whose views carry encode's
// rendering of every issue. The first read builds the initial view.
func NewReplica(src *Store, encode func(*Issue) ([]byte, error)) *Replica {
	return &Replica{src: src, encode: encode}
}

// refresh returns a view no older than the store version observed at
// entry.
func (r *Replica) refresh() *replicaView {
	old := r.view.Load()
	if old != nil && old.version == r.src.Version() {
		return old
	}
	return r.publish(old, r.build(old))
}

// publish installs nv in place of old and returns it, unless a
// concurrent refresh has meanwhile installed a view at least as new:
// then that view stays and is returned, so a slow refresh never
// replaces a newer view.
func (r *Replica) publish(old, nv *replicaView) *replicaView {
	for !r.view.CompareAndSwap(old, nv) {
		if old = r.view.Load(); old.version >= nv.version {
			return old
		}
	}
	return nv
}

// build makes the view of the store's current contents. When the ID
// set is unchanged and no replaced issue moved in time, it keeps
// prev's order and index and swaps in only the replaced issues;
// otherwise it sorts afresh, reusing prev's encoding of every issue
// whose pointer is unchanged.
func (r *Replica) build(prev *replicaView) *replicaView {
	r.refreshes.Add(1)
	r.src.mu.RLock()
	nv := &replicaView{version: r.src.version}
	if swaps, ok := prev.replaced(r.src); ok {
		r.src.mu.RUnlock()
		nv.entries = slices.Clone(prev.entries)
		nv.index = prev.index
		for _, s := range swaps {
			nv.entries[s.pos] = r.encodeIssue(s.iss)
		}
		return nv
	}
	issues := make([]*Issue, len(r.src.order))
	for i, id := range r.src.order {
		issues[i] = r.src.issues[id]
	}
	r.src.mu.RUnlock()
	sort.Slice(issues, func(a, b int) bool { return issueLess(issues[a], issues[b]) })
	nv.entries = make([]Encoded, len(issues))
	nv.index = make(map[string]int, len(issues))
	for i, iss := range issues {
		nv.index[iss.ID] = i
		if e, ok := prev.lookup(iss.ID); ok && e.Issue == iss {
			nv.entries[i] = e
		} else {
			nv.entries[i] = r.encodeIssue(iss)
		}
	}
	return nv
}

// swap is one issue the store replaced since a view was built, and
// its position in that view.
type swap struct {
	pos int
	iss *Issue
}

// replaced reports the issues src replaced since v was built, and
// whether v's order still holds for src: the ID set is unchanged (the
// store never deletes, so equal counts mean equal sets) and no
// replaced issue changed its creation time. The caller holds src.mu.
func (v *replicaView) replaced(src *Store) ([]swap, bool) {
	if v == nil || len(src.order) != len(v.entries) {
		return nil, false
	}
	var swaps []swap
	for i, e := range v.entries {
		cur := src.issues[e.Issue.ID]
		if cur == e.Issue {
			continue
		}
		if !cur.Created.Equal(e.Issue.Created) {
			return nil, false
		}
		swaps = append(swaps, swap{i, cur})
	}
	return swaps, true
}

// lookup returns the entry for id in v, if v holds one.
func (v *replicaView) lookup(id string) (Encoded, bool) {
	if v == nil {
		return Encoded{}, false
	}
	i, ok := v.index[id]
	if !ok {
		return Encoded{}, false
	}
	return v.entries[i], true
}

// encodeIssue renders one issue with the replica's encoder.
func (r *Replica) encodeIssue(iss *Issue) Encoded {
	r.encodes.Add(1)
	wire, err := r.encode(iss)
	return Encoded{Issue: iss, Wire: wire, Err: err}
}

// List answers q from the view, with the same ordering, pagination and
// total semantics as Store.List: the page of matches and the number
// of matches before pagination.
func (r *Replica) List(q Query) ([]Encoded, int) {
	v := r.refresh()
	lo := max(q.Offset, 0)
	var page []Encoded
	if q.Limit > 0 {
		page = make([]Encoded, 0, min(q.Limit, len(v.entries)))
	}
	total := 0
	for i := range v.entries {
		e := &v.entries[i]
		if !q.Matches(e.Issue) {
			continue
		}
		if total >= lo && (q.Limit <= 0 || total-lo < q.Limit) {
			page = append(page, *e)
		}
		total++
	}
	return page, total
}

// Get returns the view's entry for the issue with the given ID.
func (r *Replica) Get(id string) (Encoded, bool) {
	return r.refresh().lookup(id)
}

// Len returns the view's issue count.
func (r *Replica) Len() int { return len(r.refresh().entries) }

// Stats returns the replica's refresh and encode counts.
func (r *Replica) Stats() ReplicaStats {
	return ReplicaStats{Refreshes: r.refreshes.Load(), Encodes: r.encodes.Load()}
}
