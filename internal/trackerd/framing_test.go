package trackerd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"sdnbugs/internal/tracker"
)

// corpusService is newService's default tenant with corpus.Generate(1)
// put straight into its shards' stores: ONOS and CORD in alpha/bugs
// (JIRA), FAUCET in alpha/faucet (GitHub).
func corpusService(t *testing.T) *Service {
	t.Helper()
	svc := newService(t)
	jira, github := corpusStores(t)
	for _, c := range []struct {
		from    *tracker.Store
		project string
	}{{jira, "bugs"}, {github, "faucet"}} {
		all, _ := c.from.List(tracker.Query{})
		for _, iss := range all {
			if err := svc.Shard("alpha", c.project).DS.Store().Put(iss); err != nil {
				t.Fatal(err)
			}
		}
	}
	return svc
}

// checkFramed fails unless a GET of url answers 200 with a
// Content-Length equal to the body's length, and returns the body. Go's
// client drops Content-Length from a chunked response, so a matching
// header also rules out chunked framing.
func checkFramed(t *testing.T, url string) []byte {
	t.Helper()
	code, hdr, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, code, body)
	}
	if got := hdr.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Errorf("GET %s: Content-Length %q for a body of %d bytes", url, got, len(body))
	}
	return body
}

// TestPageRoutesSendContentLength: over a real loopback server, every
// page route of both dialects, tenant-mounted and single-store, answers
// empty and non-empty pages with their length and unchunked.
func TestPageRoutesSendContentLength(t *testing.T) {
	svc := corpusService(t)
	srv := httptest.NewServer(svc)
	defer srv.Close()
	jira, github := corpusStores(t)
	jsrv := httptest.NewServer(NewJIRAHandler(jira))
	defer jsrv.Close()
	gsrv := httptest.NewServer(NewGitHubHandler(github, "faucetsdn", "faucet"))
	defer gsrv.Close()

	for _, base := range []string{srv.URL + "/t/alpha/bugs", jsrv.URL} {
		search := base + "/rest/api/2/search"
		if body := checkFramed(t, search); !bytes.Contains(body, []byte(`"issues":[{`)) {
			t.Errorf("%s: want a non-empty page, got %.200s", search, body)
		}
		checkFramed(t, search+"?maxResults=200")
		if body := checkFramed(t, search+"?startAt=100000"); !bytes.HasSuffix(body, []byte(`"issues":null}`+"\n")) {
			t.Errorf("%s: want an empty page, got %.200s", search, body)
		}
	}
	for _, base := range []string{srv.URL + "/t/alpha/faucet", gsrv.URL} {
		list := base + "/repos/faucetsdn/faucet/issues"
		if body := checkFramed(t, list); !bytes.HasPrefix(body, []byte(`[{`)) {
			t.Errorf("%s: want a non-empty page, got %.200s", list, body)
		}
		checkFramed(t, list+"?per_page=100")
		if body := checkFramed(t, list+"?page=1000"); string(body) != "[]\n" {
			t.Errorf("%s: want an empty page, got %q", list, body)
		}
	}
}

// TestMidPageEncodeErrorIs500WithNoPartialBody: an issue the encoder
// rejects in the middle of a page answers 500 with only the error
// text: no part of the page before it reaches the client.
func TestMidPageEncodeErrorIs500WithNoPartialBody(t *testing.T) {
	store := tracker.NewStore()
	created := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	var bad tracker.Issue
	for i, id := range []string{"FAUCET#1", "FAUCET-2", "FAUCET#3"} {
		iss := tracker.Issue{ID: id, Controller: tracker.FAUCET, Title: id, Created: created.Add(time.Duration(i) * time.Hour)}
		if err := store.Put(iss); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			bad = iss
		}
	}
	_, wantErr := ToGHWire(bad)
	if wantErr == nil {
		t.Fatal("ToGHWire accepted an ID without a number")
	}
	srv := httptest.NewServer(NewGitHubHandler(store, "faucetsdn", "faucet"))
	defer srv.Close()
	code, hdr, body := get(t, srv.URL+"/repos/faucetsdn/faucet/issues")
	if code != http.StatusInternalServerError || string(body) != wantErr.Error()+"\n" ||
		hdr.Get("Content-Type") != "text/plain; charset=utf-8" {
		t.Fatalf("got %d %q %q, want 500 with only %q", code, hdr.Get("Content-Type"), body, wantErr.Error())
	}
}

// TestLargePageSkipsPool: a maxResults=200 page outgrows maxPooledPage,
// so its buffer is dropped and counted on /metricz, and the page still
// matches the json.Encoder reference byte for byte.
func TestLargePageSkipsPool(t *testing.T) {
	svc := corpusService(t)
	srv := httptest.NewServer(svc)
	defer srv.Close()
	dropped := func() float64 {
		_, _, body := get(t, srv.URL+"/metricz")
		var snap struct {
			Gauges map[string]float64 `json:"gauges"`
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("metricz is not JSON: %v", err)
		}
		v, ok := snap.Gauges["page_buffers.dropped"]
		if !ok {
			t.Fatal("metricz has no page_buffers.dropped gauge")
		}
		return v
	}
	before := dropped()
	body := checkFramed(t, srv.URL+"/t/alpha/bugs/rest/api/2/search?maxResults=200")
	if len(body) <= maxPooledPage {
		t.Fatalf("page of %d bytes is within maxPooledPage (%d)", len(body), maxPooledPage)
	}
	if after := dropped(); after <= before {
		t.Errorf("page_buffers.dropped = %v after a %d-byte page, was %v", after, len(body), before)
	}
	jira, _ := corpusStores(t)
	want := serve(referenceJIRA(jira), "/rest/api/2/search", "maxResults=200")
	if !bytes.Equal(body, want.Body.Bytes()) {
		t.Fatalf("large page diverged from the reference:\n got %.300s\nwant %.300s", body, want.Body.Bytes())
	}
}
