// Package trackerd is the home of the two tracker wire dialects the
// paper mined: JIRA REST (ONOS, CORD) and GitHub Issues (FAUCET). Each
// dialect translates between the neutral tracker.Issue model and its
// JSON shapes once, for both sides of the wire:
//
//   - serving: NewJIRAHandler and NewGitHubHandler answer from a
//     single in-memory tracker.Store, and the multi-tenant Service
//     (service.go) mounts the same dialects for N tenants × M
//     projects, each backed by its own crash-consistent durable shard;
//   - mining: Client (client.go) pages a JIRASearch or GitHubList
//     through one hardened, resumable paging loop.
package trackerd

import (
	"encoding/json"
	"net/http"
	"strconv"

	"sdnbugs/internal/tracker"
)

// Source is the read surface a dialect serves from: the in-memory
// tracker.Store (via storeSource) for the single-store handlers, or a
// snapshot-serving tracker.Replica for the durable shards of a
// Service, where list traffic must never block writers.
type Source interface {
	List(q tracker.Query) ([]tracker.Issue, int)
	Get(id string) (tracker.Issue, bool)
}

// storeSource adapts a *tracker.Store to the Source interface.
type storeSource struct {
	store *tracker.Store
}

func (s storeSource) List(q tracker.Query) ([]tracker.Issue, int) { return s.store.List(q) }

func (s storeSource) Get(id string) (tracker.Issue, bool) {
	iss, err := s.store.Get(id)
	return iss, err == nil
}

// NewJIRAHandler serves the JIRA /rest/api/2 dialect from store.
func NewJIRAHandler(store *tracker.Store) http.Handler {
	api := &jiraAPI{src: storeSource{store}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /rest/api/2/search", api.handleSearch)
	mux.HandleFunc("GET /rest/api/2/issue/{key}", api.handleIssue)
	return mux
}

// NewGitHubHandler serves the GitHub issues dialect for the repository
// path owner/name from store, whose issues carry "FAUCET#N" IDs.
func NewGitHubHandler(store *tracker.Store, owner, name string) http.Handler {
	api := &githubAPI{src: storeSource{store}, ctl: tracker.FAUCET}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /repos/"+owner+"/"+name+"/issues", api.handleList)
	mux.HandleFunc("GET /repos/"+owner+"/"+name+"/issues/{number}", api.handleGet)
	return mux
}

// atoiDefault parses s, falling back to def for empty, malformed, or
// negative input — the shared query-parameter rule of both dialects.
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
