package trackerd

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sdnbugs/internal/corpus"
	"sdnbugs/internal/diskfault"
	"sdnbugs/internal/durable"
	"sdnbugs/internal/tracker"
)

// benchShard opens a one-tenant service whose JIRA shard alpha/bugs
// holds the ONOS and CORD issues of corpus.Generate(1), put straight
// into the shard's in-memory store (the benches time the read path,
// not the journal).
func benchShard(b *testing.B) (*Service, *Shard, []tracker.Issue) {
	b.Helper()
	svc, err := New(Config{
		Root:    "bench",
		Durable: durable.Options{FS: diskfault.NewMemFS()},
		Tenants: []TenantConfig{{Name: "alpha", Projects: []ProjectConfig{{Name: "bugs", Dialect: DialectJIRA}}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = svc.Close() })
	c, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	shard := svc.Shard("alpha", "bugs")
	var issues []tracker.Issue
	for _, iss := range c.Issues {
		if tracker.TrackerFor(iss.Controller) != tracker.KindJIRA {
			continue
		}
		if err := shard.DS.Store().Put(iss); err != nil {
			b.Fatal(err)
		}
		issues = append(issues, iss)
	}
	return svc, shard, issues
}

// bufferWriter is a reusable http.ResponseWriter that keeps the body.
type bufferWriter struct {
	header http.Header
	bytes.Buffer
}

func (w *bufferWriter) Header() http.Header { return w.header }
func (w *bufferWriter) WriteHeader(int)     {}

// BenchmarkReplicaSearchPage serves one 50-issue JIRA search page from
// a shard's replica through the service's routing, with no writes in
// between: the steady-state read path.
func BenchmarkReplicaSearchPage(b *testing.B) {
	svc, _, issues := benchShard(b)
	req := httptest.NewRequest(http.MethodGet, "/t/alpha/bugs/rest/api/2/search?maxResults=50&startAt=100", nil)
	w := &bufferWriter{header: http.Header{}}
	svc.ServeHTTP(w, req)
	if want := fmt.Sprintf(`"total":%d,"issues":[{`, len(issues)); !bytes.Contains(w.Bytes(), []byte(want)) {
		b.Fatalf("unexpected page: %.200s", w.Bytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		svc.ServeHTTP(w, req)
	}
}

// BenchmarkReplicaRefreshAfterEdit puts an edit of one existing issue
// into the shard's store and refreshes its replica: the cost a write
// adds to the next read.
func BenchmarkReplicaRefreshAfterEdit(b *testing.B) {
	_, shard, issues := benchShard(b)
	store := shard.DS.Store()
	edits := make([]tracker.Issue, len(issues))
	for i, iss := range issues {
		iss.Title += " (edited)"
		edits[i] = iss
	}
	shard.Replica.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Put(edits[i%len(edits)]); err != nil {
			b.Fatal(err)
		}
		shard.Replica.Len()
	}
}
