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
// unchanged, and an edit re-encodes one issue and copies one chunk of
// the view, not the shard.
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
// The entries are cut into chunks of viewChunk (the last may be
// shorter), so a refresh that swaps in a few issues copies only their
// chunks and shares the rest with the previous view.
type replicaView struct {
	version uint64
	n       int
	chunks  [][]Encoded
	index   map[string]int // ID → position in the listing order
	at      []int          // store insertion position → listing position
	ctl     Controller     // every entry's controller; ControllerUnknown if they differ
}

// matchesAll reports whether q matches every issue of v, so List can
// cut its page by position instead of testing each entry.
func (v *replicaView) matchesAll(q Query) bool {
	return q.MinSeverity == SeverityUnknown && q.Status == StatusUnknown &&
		q.CreatedAfter.IsZero() && q.CreatedBefore.IsZero() &&
		(q.Controller == ControllerUnknown || q.Controller == v.ctl)
}

// viewChunk is the number of entries in a full view chunk.
const viewChunk = 64

// entry returns the entry at listing position i.
func (v *replicaView) entry(i int) *Encoded {
	return &v.chunks[i/viewChunk][i%viewChunk]
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
// prev's order and indexes and swaps in only the replaced issues;
// otherwise it sorts afresh, reusing prev's encoding of every issue
// whose pointer is unchanged. The store never deletes or reorders, so
// an insertion position names the same ID in every view, and both
// paths compare pointers by position without hashing an ID.
func (r *Replica) build(prev *replicaView) *replicaView {
	r.refreshes.Add(1)
	r.src.mu.RLock()
	nv := &replicaView{version: r.src.version}
	var buf [8]swap // holds a typical refresh's swaps without allocating
	if swaps, ok := prev.replaced(r.src, buf[:0]); ok {
		r.src.mu.RUnlock()
		nv.n, nv.index, nv.at, nv.ctl = prev.n, prev.index, prev.at, prev.ctl
		nv.chunks = slices.Clone(prev.chunks)
		for _, s := range swaps {
			if s.iss.Controller != nv.ctl {
				nv.ctl = ControllerUnknown
			}
			c := nv.chunks[s.pos/viewChunk]
			if &c[0] == &prev.chunks[s.pos/viewChunk][0] { // still prev's
				c = slices.Clone(c)
				nv.chunks[s.pos/viewChunk] = c
			}
			c[s.pos%viewChunk] = r.encodeIssue(s.iss)
		}
		return nv
	}
	issues := slices.Clone(r.src.issues)
	r.src.mu.RUnlock()
	order := make([]int, len(issues)) // listing position → insertion position
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return issueLess(issues[order[a]], issues[order[b]]) })
	entries := make([]Encoded, len(issues))
	nv.n = len(issues)
	nv.index = make(map[string]int, len(issues))
	nv.at = make([]int, len(issues))
	for i, p := range order {
		iss := issues[p]
		nv.index[iss.ID] = i
		nv.at[p] = i
		if i == 0 {
			nv.ctl = iss.Controller
		} else if iss.Controller != nv.ctl {
			nv.ctl = ControllerUnknown
		}
		if prev != nil && p < len(prev.at) && prev.entry(prev.at[p]).Issue == iss {
			entries[i] = *prev.entry(prev.at[p])
		} else {
			entries[i] = r.encodeIssue(iss)
		}
	}
	for lo := 0; lo < len(entries); lo += viewChunk {
		hi := min(lo+viewChunk, len(entries))
		nv.chunks = append(nv.chunks, entries[lo:hi:hi])
	}
	return nv
}

// swap is one issue the store replaced since a view was built, and
// its position in that view.
type swap struct {
	pos int
	iss *Issue
}

// replaced appends to swaps the issues src replaced since v was
// built, and reports whether v's order still holds for src: the ID set
// is unchanged (the store never deletes, so equal counts mean equal
// sets) and no replaced issue changed its creation time. The caller
// holds src.mu.
func (v *replicaView) replaced(src *Store, swaps []swap) ([]swap, bool) {
	if v == nil || len(src.issues) != v.n {
		return nil, false
	}
	for p, cur := range src.issues {
		i := v.at[p]
		old := v.entry(i).Issue
		if cur == old {
			continue
		}
		if !cur.Created.Equal(old.Created) {
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
	return *v.entry(i), true
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
		page = make([]Encoded, 0, min(q.Limit, v.n))
	}
	if v.matchesAll(q) {
		hi := v.n
		if q.Limit > 0 && q.Limit < hi-lo {
			hi = lo + q.Limit
		}
		for i := lo; i < hi; i++ {
			page = append(page, *v.entry(i))
		}
		return page, v.n
	}
	total := 0
	for _, c := range v.chunks {
		for i := range c {
			e := &c[i]
			if !q.Matches(e.Issue) {
				continue
			}
			if total >= lo && (q.Limit <= 0 || total-lo < q.Limit) {
				page = append(page, *e)
			}
			total++
		}
	}
	return page, total
}

// Get returns the view's entry for the issue with the given ID.
func (r *Replica) Get(id string) (Encoded, bool) {
	return r.refresh().lookup(id)
}

// Len returns the view's issue count.
func (r *Replica) Len() int { return r.refresh().n }

// Stats returns the replica's refresh and encode counts.
func (r *Replica) Stats() ReplicaStats {
	return ReplicaStats{Refreshes: r.refreshes.Load(), Encodes: r.encodes.Load()}
}
