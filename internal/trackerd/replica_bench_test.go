package trackerd

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
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

// maxPageWrites gates BenchmarkServedSearchPage: socket writes per
// served page, one for the header and one for the length-framed body.
const maxPageWrites = 2

// countingListener counts the writes of every connection it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// BenchmarkServedSearchPage fetches one 50-issue JIRA search page over
// a loopback keep-alive connection whose server side counts its socket
// writes. It reports writes, bytes and allocations per page (client
// and server together) and fails above maxPageWrites writes per page.
func BenchmarkServedSearchPage(b *testing.B) {
	svc, _, _ := benchShard(b)
	srv := httptest.NewUnstartedServer(svc)
	var writes atomic.Int64
	srv.Listener = countingListener{srv.Listener, &writes}
	srv.Start()
	defer srv.Close()
	client := srv.Client()
	url := srv.URL + "/t/alpha/bugs/rest/api/2/search?maxResults=50&startAt=100"
	var body bytes.Buffer
	fetch := func() {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		body.Reset()
		_, err = io.Copy(&body, resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("GET %s: %d, %v", url, resp.StatusCode, err)
		}
	}
	fetch() // connects and builds the replica's first view
	if !bytes.Contains(body.Bytes(), []byte(`"maxResults":50,`)) {
		b.Fatalf("unexpected page: %.200s", body.Bytes())
	}
	writes.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
	b.StopTimer()
	perPage := float64(writes.Load()) / float64(b.N)
	b.ReportMetric(perPage, "writes/op")
	if perPage > maxPageWrites {
		b.Fatalf("served search page: %.2f socket writes per %d-byte page, want <= %d", perPage, body.Len(), maxPageWrites)
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
