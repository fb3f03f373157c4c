package trackerd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sdnbugs/internal/diskfault"
	"sdnbugs/internal/durable"
	"sdnbugs/internal/resilience"
	"sdnbugs/internal/tracker"
)

func seedIssues(t *testing.T) []tracker.Issue {
	t.Helper()
	base := time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC)
	return []tracker.Issue{
		{
			ID: "ONOS-1", Controller: tracker.ONOS, Title: "Cluster fails",
			Description: "switch disconnect crashes master", Severity: tracker.SeverityBlocker,
			Status: tracker.StatusClosed, Created: base, Resolved: base.Add(48 * time.Hour),
			Labels:   []string{"cluster"},
			Comments: []tracker.Comment{{Author: "alice", Body: "confirmed", Created: base.Add(time.Hour)}},
		},
		{
			ID: "CORD-7", Controller: tracker.CORD, Title: "XOS sync loops",
			Severity: tracker.SeverityMajor, Status: tracker.StatusOpen,
			Created: base.Add(3 * time.Hour),
		},
		{
			ID: "FAUCET#12", Controller: tracker.FAUCET, Title: "ACL reload crash",
			Description: "config reload drops rules", Severity: tracker.SeverityCritical,
			Status: tracker.StatusClosed, Created: base.Add(5 * time.Hour),
		},
		{
			ID: "FAUCET#13", Controller: tracker.FAUCET, Title: "stack port flap",
			Status: tracker.StatusOpen, Created: base.Add(6 * time.Hour),
		},
	}
}

func newService(t *testing.T, tenants ...TenantConfig) *Service {
	t.Helper()
	if len(tenants) == 0 {
		tenants = []TenantConfig{{
			Name: "alpha",
			Projects: []ProjectConfig{
				{Name: "bugs", Dialect: DialectJIRA},
				{Name: "faucet", Dialect: DialectGitHub, Repo: "faucetsdn/faucet", Controller: "FAUCET"},
			},
		}}
	}
	svc, err := New(Config{
		Root:    "svc",
		Durable: durable.Options{FS: diskfault.NewMemFS(), GroupCommit: true},
		Tenants: tenants,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	return svc
}

func ingest(t *testing.T, srvURL, tenant, project string, issues []tracker.Issue) {
	t.Helper()
	var body bytes.Buffer
	for _, iss := range issues {
		data, err := tracker.EncodeIssue(iss)
		if err != nil {
			t.Fatal(err)
		}
		body.Write(data)
		body.WriteByte('\n')
	}
	resp, err := http.Post(srvURL+"/t/"+tenant+"/"+project+"/admin/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest returned %s: %s", resp.Status, msg)
	}
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestServiceMatchesCompatHandlersByteForByte is the refactor's core
// safety net: a tenant-mounted JIRA or GitHub route must answer with
// exactly the bytes the single-store handlers (NewJIRAHandler,
// NewGitHubHandler) produce for the same corpus and query.
func TestServiceMatchesCompatHandlersByteForByte(t *testing.T) {
	issues := seedIssues(t)
	svc := newService(t)
	srv := httptest.NewServer(svc)
	defer srv.Close()
	var jira, faucet []tracker.Issue
	for _, iss := range issues {
		if iss.Controller == tracker.FAUCET {
			faucet = append(faucet, iss)
		} else {
			jira = append(jira, iss)
		}
	}
	ingest(t, srv.URL, "alpha", "bugs", jira)
	ingest(t, srv.URL, "alpha", "faucet", faucet)

	jiraStore, ghStore := tracker.NewStore(), tracker.NewStore()
	for _, iss := range jira {
		if err := jiraStore.Put(iss); err != nil {
			t.Fatal(err)
		}
	}
	for _, iss := range faucet {
		if err := ghStore.Put(iss); err != nil {
			t.Fatal(err)
		}
	}
	compat := httptest.NewServer(NewJIRAHandler(jiraStore))
	defer compat.Close()
	compatGH := httptest.NewServer(NewGitHubHandler(ghStore, "faucetsdn", "faucet"))
	defer compatGH.Close()

	cases := []struct{ compatBase, svcBase, path string }{
		{compat.URL, srv.URL + "/t/alpha/bugs", "/rest/api/2/search"},
		{compat.URL, srv.URL + "/t/alpha/bugs", "/rest/api/2/search?maxResults=1&startAt=1"},
		{compat.URL, srv.URL + "/t/alpha/bugs", "/rest/api/2/search?project=ONOS&severity=critical"},
		{compat.URL, srv.URL + "/t/alpha/bugs", "/rest/api/2/search?status=closed"},
		{compat.URL, srv.URL + "/t/alpha/bugs", "/rest/api/2/issue/ONOS-1"},
		{compat.URL, srv.URL + "/t/alpha/bugs", "/rest/api/2/issue/NOPE-1"},
		{compatGH.URL, srv.URL + "/t/alpha/faucet", "/repos/faucetsdn/faucet/issues"},
		{compatGH.URL, srv.URL + "/t/alpha/faucet", "/repos/faucetsdn/faucet/issues?state=closed&per_page=1"},
		{compatGH.URL, srv.URL + "/t/alpha/faucet", "/repos/faucetsdn/faucet/issues?page=2&per_page=1"},
		{compatGH.URL, srv.URL + "/t/alpha/faucet", "/repos/faucetsdn/faucet/issues/12"},
		{compatGH.URL, srv.URL + "/t/alpha/faucet", "/repos/faucetsdn/faucet/issues/999"},
	}
	for _, tc := range cases {
		wantCode, _, want := get(t, tc.compatBase+tc.path)
		gotCode, _, got := get(t, tc.svcBase+tc.path)
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Errorf("%s: service (%d) diverged from compat handler (%d)\n got: %s\nwant: %s",
				tc.path, gotCode, wantCode, got, want)
		}
	}
}

// TestTenantIsolation: two tenants hosting the same project name must
// serve disjoint corpora from disjoint shards.
func TestTenantIsolation(t *testing.T) {
	svc := newService(t,
		TenantConfig{Name: "alpha", Projects: []ProjectConfig{{Name: "bugs", Dialect: DialectJIRA}}},
		TenantConfig{Name: "beta", Projects: []ProjectConfig{{Name: "bugs", Dialect: DialectJIRA}}},
	)
	srv := httptest.NewServer(svc)
	defer srv.Close()
	iss := seedIssues(t)[0]
	ingest(t, srv.URL, "alpha", "bugs", []tracker.Issue{iss})

	if code, _, _ := get(t, srv.URL+"/t/alpha/bugs/rest/api/2/issue/ONOS-1"); code != http.StatusOK {
		t.Fatalf("alpha lost its issue: %d", code)
	}
	if code, _, _ := get(t, srv.URL+"/t/beta/bugs/rest/api/2/issue/ONOS-1"); code != http.StatusNotFound {
		t.Fatalf("beta sees alpha's issue: %d", code)
	}
	if n := svc.Shard("alpha", "bugs").DS.Len(); n != 1 {
		t.Errorf("alpha shard has %d issues, want 1", n)
	}
	if n := svc.Shard("beta", "bugs").DS.Len(); n != 0 {
		t.Errorf("beta shard has %d issues, want 0", n)
	}
}

// TestIngestedIssuesSurviveReopen: the ingest path must be durable —
// a service reopened over the same filesystem serves the same corpus.
func TestIngestedIssuesSurviveReopen(t *testing.T) {
	fs := diskfault.NewMemFS()
	cfg := Config{
		Root:    "svc",
		Durable: durable.Options{FS: fs, GroupCommit: true},
		Tenants: []TenantConfig{{Name: "alpha", Projects: []ProjectConfig{{Name: "bugs", Dialect: DialectJIRA}}}},
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	ingest(t, srv.URL, "alpha", "bugs", seedIssues(t)[:2])
	srv.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc2.Close() }()
	if n := svc2.Shard("alpha", "bugs").DS.Len(); n != 2 {
		t.Fatalf("reopened shard has %d issues, want 2", n)
	}
}

// TestRateLimit429CarriesRetryAfter: beyond its budget a tenant gets
// 429s with an integer-seconds Retry-After — and a resilience.Transport
// client rides through the throttling without surfacing an error.
func TestRateLimit429CarriesRetryAfter(t *testing.T) {
	svc := newService(t, TenantConfig{
		Name: "slow", RatePerSec: 5, Burst: 1,
		Projects: []ProjectConfig{{Name: "bugs", Dialect: DialectJIRA}},
	})
	srv := httptest.NewServer(svc)
	defer srv.Close()

	url := srv.URL + "/t/slow/bugs/rest/api/2/search"
	saw429 := false
	for i := 0; i < 10; i++ {
		code, hdr, _ := get(t, url)
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			saw429 = true
			if ra := hdr.Get("Retry-After"); ra == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if !saw429 {
		t.Fatal("10 instant requests against a 5/s budget never throttled")
	}
	if svc.Metrics().Snapshot().Counters["tenant.slow.throttled_429"] == 0 {
		t.Error("throttle counter not incremented")
	}

	// A retrying client honoring Retry-After (capped) must succeed on
	// every request despite the throttling.
	rt := resilience.NewTransport(nil, resilience.Policy{
		MaxAttempts:   12,
		BaseDelay:     time.Millisecond,
		MaxDelay:      50 * time.Millisecond,
		MaxRetryAfter: 250 * time.Millisecond,
	}, nil)
	hc := &http.Client{Transport: rt}
	for i := 0; i < 8; i++ {
		req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatalf("resilient request %d: %v", i, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("resilient request %d: status %d", i, resp.StatusCode)
		}
	}
	if m := rt.Metrics(); m.Retries == 0 {
		t.Errorf("transport metrics %+v: throttling should have forced retries", m)
	}
}

// TestBackpressureShedsLoad: with MaxInflight 1 and a slow request
// pinned inside the handler, concurrent requests are shed with 429.
func TestBackpressureShedsLoad(t *testing.T) {
	svc := newService(t, TenantConfig{
		Name: "tight", MaxInflight: 1,
		Projects: []ProjectConfig{{Name: "bugs", Dialect: DialectJIRA}},
	})
	srv := httptest.NewServer(svc)
	defer srv.Close()
	url := srv.URL + "/t/tight/bugs/rest/api/2/search"

	const concurrent = 8
	codes := make([]int, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, _ := get(t, url)
			codes[i] = code
		}(i)
	}
	wg.Wait()
	ok, shed := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 {
		t.Error("every request was shed; at least one should be served")
	}
	// Shedding is timing-dependent: requests may or may not overlap. The
	// invariant is only that ok+shed covers everything and the counter
	// agrees with what we observed.
	if got := svc.Metrics().Snapshot().Counters["tenant.tight.shed_429"]; got != uint64(shed) {
		t.Errorf("shed counter = %d, observed %d", got, shed)
	}
}

// TestHealthzAndMetricz: the operational endpoints respond and the
// metrics snapshot carries request counters and shard gauges.
func TestHealthzAndMetricz(t *testing.T) {
	svc := newService(t)
	srv := httptest.NewServer(svc)
	defer srv.Close()
	ingest(t, srv.URL, "alpha", "bugs", seedIssues(t)[:2])
	if code, _, body := get(t, srv.URL+"/healthz"); code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	get(t, srv.URL+"/t/alpha/bugs/rest/api/2/search")

	code, hdr, body := get(t, srv.URL+"/metricz")
	if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("metricz: %d %s", code, hdr.Get("Content-Type"))
	}
	var snap struct {
		Counters map[string]uint64  `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metricz is not JSON: %v\n%s", err, body)
	}
	if snap.Counters["http.requests"] == 0 {
		t.Error("http.requests counter missing or zero")
	}
	if snap.Gauges["shard.alpha.bugs.issues"] != 2 {
		t.Errorf("shard gauge = %v, want 2", snap.Gauges["shard.alpha.bugs.issues"])
	}
	if snap.Gauges["durable.records"] < 2 {
		t.Errorf("durable.records gauge = %v, want >= 2", snap.Gauges["durable.records"])
	}
}

// TestIngestRejectsGarbage: a bad line aborts with 400 and reports the
// line number.
func TestIngestRejectsGarbage(t *testing.T) {
	svc := newService(t)
	srv := httptest.NewServer(svc)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/t/alpha/bugs/admin/ingest", "application/x-ndjson",
		strings.NewReader("this is not an issue\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	msg, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(msg), "line 1") {
		t.Errorf("error does not name the line: %s", msg)
	}
}

// TestIngestLineTooLongIs400: a line longer than maxIngestLine answers
// 400 and ingests nothing.
func TestIngestLineTooLongIs400(t *testing.T) {
	svc := newService(t)
	srv := httptest.NewServer(svc)
	defer srv.Close()
	line := bytes.Repeat([]byte{'x'}, maxIngestLine+1)
	resp, err := http.Post(srv.URL+"/t/alpha/bugs/admin/ingest", "application/x-ndjson", bytes.NewReader(append(line, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if n := svc.Shard("alpha", "bugs").DS.Len(); n != 0 {
		t.Errorf("shard holds %d issues, want 0", n)
	}
}

// TestIngestThenReadReencodesOneIssue: after the first read encodes a
// shard, one ingest of an edit followed by one read re-encodes exactly
// the edited issue, as the replica.* gauges report.
func TestIngestThenReadReencodesOneIssue(t *testing.T) {
	svc := newService(t)
	srv := httptest.NewServer(svc)
	defer srv.Close()
	var jira []tracker.Issue
	for _, iss := range seedIssues(t) {
		if iss.Controller != tracker.FAUCET {
			jira = append(jira, iss)
		}
	}
	ingest(t, srv.URL, "alpha", "bugs", jira)
	gauges := func() (refreshes, encodes float64) {
		g := svc.Metrics().Snapshot().Gauges
		return g["replica.refreshes"], g["replica.encodes"]
	}
	search := srv.URL + "/t/alpha/bugs/rest/api/2/search"
	get(t, search)
	r0, e0 := gauges()
	if r0 != 1 || e0 != float64(len(jira)) {
		t.Fatalf("first read: %v refreshes, %v encodes; want 1, %d", r0, e0, len(jira))
	}
	edit := jira[0]
	edit.Title = "edited title"
	ingest(t, srv.URL, "alpha", "bugs", []tracker.Issue{edit})
	if _, _, body := get(t, search); !strings.Contains(string(body), "edited title") {
		t.Fatalf("read after ingest misses the edit: %s", body)
	}
	if r1, e1 := gauges(); r1 != r0+1 || e1 != e0+1 {
		t.Errorf("ingest + read: %v refreshes, %v encodes; want %v, %v", r1, e1, r0+1, e0+1)
	}
}

// TestReplicaServesWhileWriterBlocks: list reads come from the replica
// snapshot and must not be serialized behind a slow ingest.
func TestReplicaServesWhileWriterBlocks(t *testing.T) {
	svc := newService(t)
	srv := httptest.NewServer(svc)
	defer srv.Close()
	ingest(t, srv.URL, "alpha", "bugs", seedIssues(t)[:2])
	// Prime the replica.
	if code, _, _ := get(t, srv.URL+"/t/alpha/bugs/rest/api/2/search"); code != http.StatusOK {
		t.Fatal("prime failed")
	}

	// Stream an ingest body slowly while hammering reads.
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/t/alpha/bugs/admin/ingest", pr)
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
		done <- err
	}()
	data, err := tracker.EncodeIssue(seedIssues(t)[1])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if code, _, _ := get(t, srv.URL+"/t/alpha/bugs/rest/api/2/search"); code != http.StatusOK {
			t.Fatalf("read %d failed while ingest stream open", i)
		}
	}
	if _, err := pw.Write(append(data, '\n')); err != nil {
		t.Fatal(err)
	}
	_ = pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestBadConfigsRejected(t *testing.T) {
	fs := diskfault.NewMemFS()
	for _, tc := range []struct {
		name    string
		tenants []TenantConfig
	}{
		{"empty tenant name", []TenantConfig{{Name: "", Projects: []ProjectConfig{{Name: "p", Dialect: DialectJIRA}}}}},
		{"slash in project", []TenantConfig{{Name: "a", Projects: []ProjectConfig{{Name: "p/q", Dialect: DialectJIRA}}}}},
		{"unknown dialect", []TenantConfig{{Name: "a", Projects: []ProjectConfig{{Name: "p", Dialect: "svn"}}}}},
		{"github without repo", []TenantConfig{{Name: "a", Projects: []ProjectConfig{{Name: "p", Dialect: DialectGitHub, Controller: "FAUCET"}}}}},
		{"github bad controller", []TenantConfig{{Name: "a", Projects: []ProjectConfig{{Name: "p", Dialect: DialectGitHub, Repo: "x/y", Controller: "NOPE"}}}}},
		{"duplicate project", []TenantConfig{{Name: "a", Projects: []ProjectConfig{
			{Name: "p", Dialect: DialectJIRA}, {Name: "p", Dialect: DialectJIRA}}}}},
	} {
		if _, err := New(Config{Root: fmt.Sprintf("bad-%s", tc.name), Durable: durable.Options{FS: fs}, Tenants: tc.tenants}); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
}
