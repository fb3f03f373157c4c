package trackerd

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdnbugs/internal/chaos"
	"sdnbugs/internal/corpus"
	"sdnbugs/internal/resilience"
	"sdnbugs/internal/tracker"
)

// resilientClient builds a fast retrying client whose attempt budget
// exceeds the chaos progress bound, so every page eventually lands. The
// transport is returned too, for asserting on its retry metrics.
func resilientClient() (*http.Client, *resilience.Transport) {
	rt := resilience.NewTransport(nil, resilience.Policy{
		MaxAttempts:   8,
		BaseDelay:     100 * time.Microsecond,
		MaxDelay:      time.Millisecond,
		MaxRetryAfter: 5 * time.Millisecond,
	}, nil)
	return &http.Client{Transport: rt}, rt
}

// gate starts a server that forwards the first okRequests requests to
// inner and then answers 502 until heal is called — the standard
// mid-mining outage used by the resume tests.
func gate(t testing.TB, inner http.Handler, okRequests int) (srv *httptest.Server, heal func()) {
	t.Helper()
	var down atomic.Bool
	down.Store(true)
	var hits atomic.Int32
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if int(hits.Add(1)) > okRequests && down.Load() {
			http.Error(w, "outage", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, func() { down.Store(false) }
}

// serveStore starts h over a fresh store filled by fill.
func serveStore(t *testing.T, h func(*tracker.Store) http.Handler, fill func(*testing.T, *tracker.Store)) (*httptest.Server, *tracker.Store) {
	t.Helper()
	store := tracker.NewStore()
	if fill != nil {
		fill(t, store)
	}
	srv := httptest.NewServer(h(store))
	t.Cleanup(srv.Close)
	return srv, store
}

func putAll(t *testing.T, store *tracker.Store, issues []tracker.Issue) {
	t.Helper()
	for _, iss := range issues {
		if err := store.Put(iss); err != nil {
			t.Fatal(err)
		}
	}
}

func seedJIRA(t *testing.T, store *tracker.Store) {
	base := time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC)
	putAll(t, store, []tracker.Issue{
		{
			ID: "ONOS-1", Controller: tracker.ONOS, Title: "Cluster fails",
			Description: "Killing one instance kills the cluster.",
			Severity:    tracker.SeverityCritical, Status: tracker.StatusClosed,
			Created: base, Resolved: base.AddDate(0, 0, 12),
			Comments: []tracker.Comment{{Author: "alice", Body: "confirmed", Created: base.AddDate(0, 0, 1)}},
			Labels:   []string{"bug"},
		},
		{
			ID: "ONOS-2", Controller: tracker.ONOS, Title: "Minor glitch",
			Description: "Cosmetic only.", Severity: tracker.SeverityMinor,
			Status: tracker.StatusOpen, Created: base.AddDate(0, 0, 2),
		},
		{
			ID: "CORD-1", Controller: tracker.CORD, Title: "OLT reboot hang",
			Description: "Core thread waits forever.", Severity: tracker.SeverityBlocker,
			Status: tracker.StatusClosed, Created: base.AddDate(0, 0, 3),
			Resolved: base.AddDate(0, 0, 40),
		},
	})
}

func seedGitHub(t *testing.T, store *tracker.Store) {
	base := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	putAll(t, store, []tracker.Issue{
		{
			ID: "FAUCET#1", Controller: tracker.FAUCET,
			Title:       "Gauge crash on InfluxDB type mismatch",
			Description: "Gauge crashed because of a misconfigured data type.",
			Status:      tracker.StatusClosed, Created: base,
			Labels: []string{"bug"},
		},
		{
			ID: "FAUCET#2", Controller: tracker.FAUCET,
			Title:       "Mirroring misses broadcast packets",
			Description: "Output broadcast packets are not mirrored, wrong behaviour.",
			Status:      tracker.StatusOpen, Created: base.AddDate(0, 0, 1),
			Comments: []tracker.Comment{{Author: "bob", Body: "same here", Created: base.AddDate(0, 0, 2)}},
		},
	})
}

func serveGitHub(store *tracker.Store) http.Handler {
	return NewGitHubHandler(store, "faucetsdn", "faucet")
}

// dialect drives the shared client tests over one wire dialect.
type dialect struct {
	name    string
	listing Listing
	handler func(*tracker.Store) http.Handler
	// seed fills the small fixture the chaos test mines at chaosPageSize.
	seed          func(*testing.T, *tracker.Store)
	chaosSeed     int64
	chaosPageSize int
	// paging builds the i-th issue of an n-issue corpus that pages at
	// pageSize; after two pages the cursor stands at afterTwoPages.
	paging        func(i int) tracker.Issue
	n, pageSize   int
	afterTwoPages int
	// defaultQueries is the request sequence for the paging corpus with
	// PageSize left at 0 and a zero cursor.
	defaultQueries []string
	// emptyPage, garbage, and runaway are raw response bodies: a final
	// empty page, a non-JSON page, and a one-issue page that always
	// claims more.
	emptyPage, garbage, runaway string
}

var dialects = []dialect{
	{
		name: "jira", listing: JIRASearch{},
		handler: NewJIRAHandler,
		seed:    seedJIRA, chaosSeed: 11, chaosPageSize: 2,
		paging: func(i int) tracker.Issue {
			return tracker.Issue{
				ID:         fmt.Sprintf("ONOS-%d", 1000+i),
				Controller: tracker.ONOS, Title: "t", Description: "d",
				Severity: tracker.SeverityCritical, Status: tracker.StatusClosed,
				Created: time.Date(2019, 1, 1, i, 0, 0, 0, time.UTC),
			}
		},
		n: 137, pageSize: 25, afterTwoPages: 50,
		defaultQueries: []string{
			"maxResults=50&startAt=0", "maxResults=50&startAt=50", "maxResults=50&startAt=100",
		},
		emptyPage: `{"startAt":0,"maxResults":50,"total":0,"issues":[]}`,
		garbage:   "this is not json",
		runaway: `{"startAt":0,"maxResults":1,"total":1000000,"issues":[` +
			`{"key":"ONOS-1","fields":{"summary":"t","description":"d",` +
			`"priority":{"name":"Critical"},"status":{"name":"Closed"},` +
			`"project":{"name":"ONOS"},"created":"2019-01-01T00:00:00.000+0000",` +
			`"comment":{"comments":[],"total":0}}}]}`,
	},
	{
		name: "github", listing: GitHubList{Repo: "faucetsdn/faucet"},
		handler: serveGitHub,
		seed:    seedGitHub, chaosSeed: 17, chaosPageSize: 1,
		paging: func(i int) tracker.Issue {
			return tracker.Issue{
				ID: fmt.Sprintf("FAUCET#%d", i+1), Controller: tracker.FAUCET,
				Title: "t", Description: "d", Status: tracker.StatusClosed,
				Created: time.Date(2019, 1, 1, i+1, 0, 0, 0, time.UTC),
			}
		},
		n: 73, pageSize: 20, afterTwoPages: 3,
		defaultQueries: []string{
			"page=1&per_page=30", "page=2&per_page=30", "page=3&per_page=30",
		},
		emptyPage: `[]`,
		garbage:   "[{broken",
		runaway: `[{"number":1,"title":"t","body":"d","state":"open",` +
			`"created_at":"2019-01-01T00:00:00Z"}]`,
	},
}

// fillPaging loads d's paging corpus.
func (d dialect) fillPaging(t *testing.T, store *tracker.Store) {
	for i := 0; i < d.n; i++ {
		putAll(t, store, []tracker.Issue{d.paging(i)})
	}
}

// rawServer answers every request with body.
func rawServer(t *testing.T, body string) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestMiningUnderChaosIsByteIdentical(t *testing.T) {
	// Aggressive fault injection changes the retry schedule, never the
	// mined data.
	for _, d := range dialects {
		t.Run(d.name, func(t *testing.T) {
			srv, store := serveStore(t, d.handler, d.seed)
			ctx := context.Background()
			baseline, err := (&Client{BaseURL: srv.URL, PageSize: d.chaosPageSize}).FetchAll(ctx, d.listing)
			if err != nil {
				t.Fatal(err)
			}
			flaky := httptest.NewServer(chaos.Wrap(d.handler(store), chaos.Config{
				Seed: d.chaosSeed, Rate: 0.5, RetryAfter: time.Millisecond, Latency: time.Millisecond,
			}))
			defer flaky.Close()
			hc, rt := resilientClient()
			got, err := (&Client{BaseURL: flaky.URL, HTTPClient: hc, PageSize: d.chaosPageSize}).FetchAll(ctx, d.listing)
			if err != nil {
				t.Fatalf("mining under chaos failed: %v", err)
			}
			if !reflect.DeepEqual(got, baseline) {
				t.Errorf("chaos changed the mined data:\n got %+v\nwant %+v", got, baseline)
			}
			if m := rt.Metrics(); m.Retries == 0 {
				t.Errorf("metrics = %+v: chaos at rate 0.5 should have forced retries", m)
			}
		})
	}
}

func TestResumeContinuesFromLastCompletedPage(t *testing.T) {
	for _, d := range dialects {
		t.Run(d.name, func(t *testing.T) {
			srv, store := serveStore(t, d.handler, d.fillPaging)
			ctx := context.Background()
			full, err := (&Client{BaseURL: srv.URL, PageSize: d.pageSize}).FetchAll(ctx, d.listing)
			if err != nil {
				t.Fatal(err)
			}
			// Serve two pages, then fail until healed; a plain client
			// (no retries) surfaces the outage immediately.
			g, heal := gate(t, d.handler(store), 2)
			c := Client{BaseURL: g.URL, HTTPClient: &http.Client{}, PageSize: d.pageSize}
			var cur Cursor
			if err := c.Resume(ctx, d.listing, &cur); err == nil {
				t.Fatal("want failure on the third page")
			}
			if cur.Next != d.afterTwoPages || len(cur.Issues) != 2*d.pageSize {
				t.Fatalf("cursor after failure: next=%d issues=%d, want %d/%d",
					cur.Next, len(cur.Issues), d.afterTwoPages, 2*d.pageSize)
			}
			heal()
			if err := c.Resume(ctx, d.listing, &cur); err != nil {
				t.Fatalf("resume after heal: %v", err)
			}
			if !reflect.DeepEqual(cur.Issues, full) {
				t.Errorf("resumed mining diverged: %d issues vs %d baseline", len(cur.Issues), len(full))
			}
		})
	}
}

func TestClientSendsMiningHeaders(t *testing.T) {
	for _, d := range dialects {
		t.Run(d.name, func(t *testing.T) {
			var accept, ua string
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				accept, ua = r.Header.Get("Accept"), r.Header.Get("User-Agent")
				_, _ = w.Write([]byte(d.emptyPage))
			}))
			defer srv.Close()
			c := Client{BaseURL: srv.URL, HTTPClient: &http.Client{}}
			if _, err := c.FetchAll(context.Background(), d.listing); err != nil {
				t.Fatal(err)
			}
			if accept != "application/json" || ua != userAgent {
				t.Errorf("headers = Accept %q, User-Agent %q", accept, ua)
			}
		})
	}
}

func TestPageCapStopsRunawayPaging(t *testing.T) {
	// A server whose every page is full and claims more: the hard page
	// cap bounds the loop.
	for _, d := range dialects {
		t.Run(d.name, func(t *testing.T) {
			c := Client{BaseURL: rawServer(t, d.runaway).URL, HTTPClient: &http.Client{}, PageSize: 1, MaxPages: 5}
			_, err := c.FetchAll(context.Background(), d.listing)
			if err == nil || !strings.Contains(err.Error(), "exceeded 5 pages") {
				t.Fatalf("err = %v, want page-cap error", err)
			}
		})
	}
}

func TestPagination(t *testing.T) {
	for _, d := range dialects {
		t.Run(d.name, func(t *testing.T) {
			srv, _ := serveStore(t, d.handler, d.fillPaging)
			got, err := (&Client{BaseURL: srv.URL, PageSize: d.pageSize}).FetchAll(context.Background(), d.listing)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != d.n {
				t.Errorf("paged fetch = %d, want %d", len(got), d.n)
			}
			seen := map[string]bool{}
			for _, iss := range got {
				if seen[iss.ID] {
					t.Fatalf("duplicate issue %s across pages", iss.ID)
				}
				seen[iss.ID] = true
			}
		})
	}
}

// TestDefaultPageSizesAndCursorStart pins each dialect's default page
// size and first cursor position: a GitHub cursor is a page number, so
// changing either would make a resumed miner skip or repeat issues.
func TestDefaultPageSizesAndCursorStart(t *testing.T) {
	for _, d := range dialects {
		t.Run(d.name, func(t *testing.T) {
			store := tracker.NewStore()
			d.fillPaging(t, store)
			inner := d.handler(store)
			var mu sync.Mutex
			var queries []string
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				queries = append(queries, r.URL.RawQuery)
				mu.Unlock()
				inner.ServeHTTP(w, r)
			}))
			defer srv.Close()
			got, err := (&Client{BaseURL: srv.URL, HTTPClient: &http.Client{}}).FetchAll(context.Background(), d.listing)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != d.n {
				t.Errorf("fetched %d, want %d", len(got), d.n)
			}
			if !slices.Equal(queries, d.defaultQueries) {
				t.Errorf("queries = %q, want %q", queries, d.defaultQueries)
			}
		})
	}
}

func TestClientHandlesServerFailure(t *testing.T) {
	// A server that always 500s: the client reports the status rather
	// than hanging or panicking.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	for _, d := range dialects {
		t.Run(d.name, func(t *testing.T) {
			if _, err := (&Client{BaseURL: bad.URL}).FetchAll(context.Background(), d.listing); err == nil {
				t.Error("want error from failing server")
			}
		})
	}
}

func TestClientHandlesGarbageJSON(t *testing.T) {
	for _, d := range dialects {
		t.Run(d.name, func(t *testing.T) {
			c := Client{BaseURL: rawServer(t, d.garbage).URL}
			if _, err := c.FetchAll(context.Background(), d.listing); err == nil {
				t.Error("want decode error")
			}
		})
	}
}

func TestSearchRoundTrip(t *testing.T) {
	srv, _ := serveStore(t, NewJIRAHandler, seedJIRA)
	got, err := (&Client{BaseURL: srv.URL}).FetchAll(context.Background(), JIRASearch{Project: "ONOS"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d issues, want 2", len(got))
	}
	first := got[0]
	if first.ID != "ONOS-1" || first.Controller != tracker.ONOS {
		t.Errorf("identity fields: %+v", first)
	}
	if first.Severity != tracker.SeverityCritical || first.Status != tracker.StatusClosed {
		t.Errorf("severity/status: %v %v", first.Severity, first.Status)
	}
	if d, ok := first.ResolutionTime(); !ok || d != 12*24*time.Hour {
		t.Errorf("resolution time: %v %v", d, ok)
	}
	if len(first.Comments) != 1 || first.Comments[0].Author != "alice" {
		t.Errorf("comments: %+v", first.Comments)
	}
}

func TestSearchFilters(t *testing.T) {
	srv, _ := serveStore(t, NewJIRAHandler, seedJIRA)
	c := Client{BaseURL: srv.URL}
	crit, err := c.FetchAll(context.Background(), JIRASearch{Severity: "critical"})
	if err != nil {
		t.Fatal(err)
	}
	if len(crit) != 2 {
		t.Errorf("critical band: %d, want 2", len(crit))
	}
	closed, err := c.FetchAll(context.Background(), JIRASearch{Status: "Closed"})
	if err != nil {
		t.Fatal(err)
	}
	if len(closed) != 2 {
		t.Errorf("closed: %d, want 2", len(closed))
	}
}

func TestBadRequests(t *testing.T) {
	srv, _ := serveStore(t, NewJIRAHandler, seedJIRA)
	c := Client{BaseURL: srv.URL}
	if _, err := c.FetchAll(context.Background(), JIRASearch{Project: "NOTREAL"}); err == nil {
		t.Error("want error for unknown project")
	}
	if _, err := c.FetchAll(context.Background(), JIRASearch{Severity: "apocalyptic"}); err == nil {
		t.Error("want error for unknown severity")
	}
}

func TestInconsistentTotalDetected(t *testing.T) {
	// A server that advertises 100 results but serves none: the paging
	// guard must error out instead of spinning.
	srv := rawServer(t, `{"startAt":0,"maxResults":50,"total":100,"issues":[]}`)
	_, err := (&Client{BaseURL: srv.URL, HTTPClient: &http.Client{}}).FetchAll(context.Background(), JIRASearch{})
	if err == nil || !strings.Contains(err.Error(), "no paging progress") {
		t.Fatalf("err = %v, want no-progress detection", err)
	}
}

func TestClientBadBaseURL(t *testing.T) {
	c := Client{BaseURL: "http://127.0.0.1:1"} // nothing listens here
	if _, err := c.FetchAll(context.Background(), JIRASearch{}); err == nil {
		t.Error("want connection error")
	}
}

func TestMineGeneratedCorpus(t *testing.T) {
	// End-to-end: load the generated ONOS+CORD bugs into the simulator
	// and mine them back over HTTP, as the study pipeline does.
	corp, err := corpus.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := serveStore(t, NewJIRAHandler, func(t *testing.T, store *tracker.Store) {
		for _, iss := range corp.Issues {
			if tracker.TrackerFor(iss.Controller) == tracker.KindJIRA {
				putAll(t, store, []tracker.Issue{iss})
			}
		}
	})
	got, err := (&Client{BaseURL: srv.URL, PageSize: 100}).FetchAll(context.Background(), JIRASearch{})
	if err != nil {
		t.Fatal(err)
	}
	// 186 + 358 critical bugs (paper §II-B).
	if len(got) != 186+358 {
		t.Errorf("mined %d, want 544", len(got))
	}
	for _, iss := range got {
		if corp.Labels[iss.ID].Trigger.String() == "unknown" {
			t.Fatalf("mined unknown issue %s", iss.ID)
		}
		if iss.Description == "" {
			t.Fatalf("issue %s lost its description in transit", iss.ID)
		}
	}
}

func TestFetchAllAndSeverityExtraction(t *testing.T) {
	srv, _ := serveStore(t, serveGitHub, seedGitHub)
	got, err := (&Client{BaseURL: srv.URL}).FetchAll(context.Background(), GitHubList{Repo: "faucetsdn/faucet"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d, want 2", len(got))
	}
	byID := map[string]tracker.Issue{}
	for _, iss := range got {
		byID[iss.ID] = iss
	}
	// "crash" keyword => critical; "wrong behaviour" => major.
	if s := byID["FAUCET#1"].Severity; s != tracker.SeverityCritical {
		t.Errorf("FAUCET#1 severity = %v, want critical", s)
	}
	if s := byID["FAUCET#2"].Severity; s != tracker.SeverityMajor {
		t.Errorf("FAUCET#2 severity = %v, want major", s)
	}
	if len(byID["FAUCET#2"].Comments) != 1 {
		t.Errorf("comments lost: %+v", byID["FAUCET#2"].Comments)
	}
}

func TestStateFilter(t *testing.T) {
	srv, _ := serveStore(t, serveGitHub, seedGitHub)
	closed, err := (&Client{BaseURL: srv.URL}).FetchAll(context.Background(),
		GitHubList{Repo: "faucetsdn/faucet", State: "closed"})
	if err != nil {
		t.Fatal(err)
	}
	if len(closed) != 1 || closed[0].ID != "FAUCET#1" {
		t.Fatalf("closed = %+v", closed)
	}
	if closed[0].Status != tracker.StatusClosed {
		t.Errorf("status = %v", closed[0].Status)
	}
}

func TestNoResolutionTimestampExposed(t *testing.T) {
	// Even for closed FAUCET issues with no Resolved value, the wire
	// and the client must agree: no resolution time (paper §VIII).
	srv, _ := serveStore(t, serveGitHub, seedGitHub)
	got, err := (&Client{BaseURL: srv.URL}).FetchAll(context.Background(),
		GitHubList{Repo: "faucetsdn/faucet", State: "closed"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got[0].ResolutionTime(); ok {
		t.Error("GitHub-mined issue must not expose a resolution time")
	}
}

func TestGetSingleIssue(t *testing.T) {
	srv, _ := serveStore(t, serveGitHub, seedGitHub)
	for path, want := range map[string]int{"/issues/1": http.StatusOK, "/issues/999": http.StatusNotFound} {
		resp, err := http.Get(srv.URL + "/repos/faucetsdn/faucet" + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %s, want %d", path, resp.Status, want)
		}
	}
}

func TestMineGeneratedFaucetCorpus(t *testing.T) {
	corp, err := corpus.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	srv, _ := serveStore(t, serveGitHub, func(t *testing.T, store *tracker.Store) {
		for _, iss := range corp.Issues {
			if iss.Controller == tracker.FAUCET {
				putAll(t, store, []tracker.Issue{iss})
				want++
			}
		}
	})
	if want != 251 {
		t.Fatalf("FAUCET corpus = %d, want 251 (paper §II-B)", want)
	}
	got, err := (&Client{BaseURL: srv.URL, PageSize: 100}).FetchAll(context.Background(), GitHubList{Repo: "faucetsdn/faucet"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want {
		t.Errorf("mined %d, want %d", len(got), want)
	}
	// Severity keyword extraction should mark most of these critical-
	// band: the corpus is all critical bugs, with crash/fatal language.
	criticalBand := 0
	for _, iss := range got {
		if iss.Severity.Critical() {
			criticalBand++
		}
	}
	if frac := float64(criticalBand) / float64(len(got)); frac < 0.3 {
		t.Errorf("keyword heuristic found %.2f critical-band, suspiciously low", frac)
	}
}
