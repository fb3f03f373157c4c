// Package trackerd is the home of the two tracker wire dialects the
// paper mined: JIRA REST (ONOS, CORD) and GitHub Issues (FAUCET). Each
// dialect translates between the neutral tracker.Issue model and its
// JSON shapes once, for both sides of the wire:
//
//   - serving: NewJIRAHandler and NewGitHubHandler answer from a
//     single in-memory tracker.Store, and the multi-tenant Service
//     (service.go) mounts the same dialects for N tenants × M
//     projects, each backed by its own crash-consistent durable shard.
//     Both read through a tracker.Replica that keeps every issue's
//     wire encoding, and splice those bytes into the response;
//   - mining: Client (client.go) pages a JIRASearch or GitHubList
//     through one hardened, resumable paging loop.
package trackerd

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"sdnbugs/internal/tracker"
)

// NewJIRAHandler serves the JIRA /rest/api/2 dialect from store.
func NewJIRAHandler(store *tracker.Store) http.Handler {
	api := newJIRAAPI(store)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /rest/api/2/search", api.handleSearch)
	mux.HandleFunc("GET /rest/api/2/issue/{key}", api.handleIssue)
	return mux
}

// NewGitHubHandler serves the GitHub issues dialect for the repository
// path owner/name from store, whose issues carry "FAUCET#N" IDs.
func NewGitHubHandler(store *tracker.Store, owner, name string) http.Handler {
	api := newGitHubAPI(store, tracker.FAUCET)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /repos/"+owner+"/"+name+"/issues", api.handleList)
	mux.HandleFunc("GET /repos/"+owner+"/"+name+"/issues/{number}", api.handleGet)
	return mux
}

// atoiDefault parses s, falling back to def for empty, malformed, or
// negative input — the JIRA dialect's rule for startAt and maxResults.
func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return def
	}
	return n
}

// writeJSON encodes v with a streaming encoder (trailing newline
// included), matching the original simulators byte for byte.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already written; nothing more we can do.
		return
	}
}

// newline ends a single spliced issue, as json.Encoder ends every
// value.
var newline = []byte{'\n'}

// maxPooledPage is the capacity of the largest page buffer writePage
// returns to pagePool. It holds the default page of either dialect (a
// 50-issue JIRA search page is about 42 KB, a 30-issue GitHub list
// page about 22 KB); a buffer grown past it by a larger page is left to
// the collector, so one maxResults=200 request does not pin its
// buffer in the pool.
const maxPooledPage = 64 << 10

// pagePool holds the buffers writePage assembles responses in.
var pagePool = sync.Pool{New: func() any { return new([]byte) }}

// pageBuffersDropped counts page buffers writePage did not return to
// pagePool because they outgrew maxPooledPage.
var pageBuffersDropped atomic.Uint64

// writePage answers with head, then page's pre-encoded issues as a JSON
// array (or empty when page is), then tail — the bytes json.Encoder
// writes for the same values. The response is assembled in one pooled
// buffer and written once with its Content-Length, so net/http sends
// it unchunked in a header write and a body write. An encoding error
// answers 500 before anything is written.
func writePage(w http.ResponseWriter, head []byte, page []tracker.Encoded, empty, tail string) {
	// n is at least the response's size: head, tail, empty or the
	// brackets and commas, and every issue.
	n := len(head) + len(empty) + len(tail) + len(page) + 1
	for _, e := range page {
		if e.Err != nil {
			http.Error(w, e.Err.Error(), http.StatusInternalServerError)
			return
		}
		n += len(e.Wire)
	}
	bp := pagePool.Get().(*[]byte)
	buf := append(slices.Grow((*bp)[:0], n), head...)
	if len(page) == 0 {
		buf = append(buf, empty...)
	} else {
		buf = append(buf, '[')
		for i, e := range page {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, e.Wire...)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, tail...)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	_, _ = w.Write(buf)
	// Write has returned and must not have kept buf (io.Writer), so the
	// buffer can go back to the pool.
	if cap(buf) > maxPooledPage {
		pageBuffersDropped.Add(1)
		return
	}
	*bp = buf
	pagePool.Put(bp)
}

// writeIssue answers with one pre-encoded issue and json.Encoder's
// trailing newline, or 500 when it could not be encoded.
func writeIssue(w http.ResponseWriter, e tracker.Encoded) {
	if e.Err != nil {
		http.Error(w, e.Err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(e.Wire)
	_, _ = w.Write(newline)
}
