package trackerd

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sdnbugs/internal/corpus"
	"sdnbugs/internal/tracker"
)

// referenceJIRA answers the JIRA routes the way the handlers did before
// replicas kept wire encodings: Store.List or Store.Get, then
// json.NewEncoder(w).Encode of the wire values. The byte-identity tests
// hold the spliced responses to it.
func referenceJIRA(store *tracker.Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /rest/api/2/search", func(w http.ResponseWriter, r *http.Request) {
		q, err := jiraQuery(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		issues, total := store.List(q)
		resp := JIRASearchResponse{StartAt: q.Offset, MaxResults: q.Limit, Total: total}
		for _, iss := range issues {
			resp.Issues = append(resp.Issues, ToJIRAWire(iss))
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /rest/api/2/issue/{key}", func(w http.ResponseWriter, r *http.Request) {
		iss, err := store.Get(r.PathValue("key"))
		if err != nil {
			http.Error(w, "issue not found", http.StatusNotFound)
			return
		}
		writeJSON(w, ToJIRAWire(iss))
	})
	return mux
}

// referenceGitHub is referenceJIRA for the GitHub routes of
// faucetsdn/faucet.
func referenceGitHub(store *tracker.Store) http.Handler {
	const base = "/repos/faucetsdn/faucet/issues"
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+base, func(w http.ResponseWriter, r *http.Request) {
		issues, _ := store.List(githubQuery(r.URL.Query(), tracker.FAUCET))
		out := make([]GHIssue, 0, len(issues))
		for _, iss := range issues {
			wi, err := ToGHWire(iss)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			out = append(out, wi)
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("GET "+base+"/{number}", func(w http.ResponseWriter, r *http.Request) {
		iss, err := store.Get("FAUCET#" + r.PathValue("number"))
		if err != nil {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		wi, err := ToGHWire(iss)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, wi)
	})
	return mux
}

// pair is a handler under test and its reference over the same store.
type pair struct {
	got, want http.Handler
}

func jiraPair(store *tracker.Store) pair {
	return pair{NewJIRAHandler(store), referenceJIRA(store)}
}

func githubPair(store *tracker.Store) pair {
	return pair{NewGitHubHandler(store, "faucetsdn", "faucet"), referenceGitHub(store)}
}

// serve answers a GET of path with rawQuery set verbatim.
func serve(h http.Handler, path, rawQuery string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodGet, path, nil)
	r.URL.RawQuery = rawQuery
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// compare fails unless both handlers answer path?rawQuery with the
// same status, Content-Type and body bytes, and returns the body.
func (p pair) compare(t testing.TB, path, rawQuery string) string {
	t.Helper()
	got, want := serve(p.got, path, rawQuery), serve(p.want, path, rawQuery)
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
		got.Body.String() != want.Body.String() {
		t.Fatalf("GET %s?%s: got %d %q\n%.300q\nwant %d %q\n%.300q", path, rawQuery,
			got.Code, got.Header().Get("Content-Type"), got.Body.String(),
			want.Code, want.Header().Get("Content-Type"), want.Body.String())
	}
	return got.Body.String()
}

// corpusStores splits corpus.Generate(1) into a JIRA store (ONOS, CORD)
// and a GitHub store (FAUCET), as the mining experiments serve it.
func corpusStores(t testing.TB) (jira, github *tracker.Store) {
	t.Helper()
	c, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	jira, github = tracker.NewStore(), tracker.NewStore()
	for _, iss := range c.Issues {
		store := jira
		if tracker.TrackerFor(iss.Controller) == tracker.KindGitHub {
			store = github
		}
		if err := store.Put(iss); err != nil {
			t.Fatal(err)
		}
	}
	return jira, github
}

func TestJIRARoutesMatchEncoderReference(t *testing.T) {
	store, _ := corpusStores(t)
	p := jiraPair(store)
	all, _ := store.List(tracker.Query{})
	for _, iss := range all {
		p.compare(t, "/rest/api/2/issue/"+iss.ID, "")
	}
	p.compare(t, "/rest/api/2/issue/NOPE-1", "")

	const search = "/rest/api/2/search"
	n := len(all)
	for start := 0; start <= n+60; start += 37 {
		p.compare(t, search, "startAt="+strconv.Itoa(start))
	}
	if body := p.compare(t, search, fmt.Sprintf("startAt=%d", n+1)); !strings.Contains(body, `"issues":null}`) {
		t.Errorf("page past the end: %.200s, want \"issues\":null", body)
	}
	for _, rq := range []string{
		"", "maxResults=0", "maxResults=1", "maxResults=200", "maxResults=201", "maxResults=100000",
		"maxResults=-4", "maxResults=x", "startAt=-1", "startAt=" + strconv.Itoa(n), "startAt=" + strconv.Itoa(n-1),
		"project=ONOS", "project=cord&maxResults=200&startAt=10", "project=FAUCET", "project=NOPE",
		"severity=critical", "severity=Blocker&project=ONOS", "severity=bogus",
		"status=closed", "status=Open&maxResults=3", "status=In%20Progress", "status=weird",
		"project=ONOS&severity=major&status=resolved&startAt=5&maxResults=7",
	} {
		p.compare(t, search, rq)
	}
}

func TestGitHubRoutesMatchEncoderReference(t *testing.T) {
	_, store := corpusStores(t)
	p := githubPair(store)
	all, _ := store.List(tracker.Query{})
	for _, iss := range all {
		num, err := IssueNumber(iss.ID)
		if err != nil {
			t.Fatal(err)
		}
		p.compare(t, "/repos/faucetsdn/faucet/issues/"+strconv.Itoa(num), "")
	}
	p.compare(t, "/repos/faucetsdn/faucet/issues/999999", "")

	const list = "/repos/faucetsdn/faucet/issues"
	for page := 0; page <= len(all)/30+2; page++ {
		p.compare(t, list, "page="+strconv.Itoa(page))
	}
	if body := p.compare(t, list, "page=1000"); body != "[]\n" {
		t.Errorf("page past the end: %q, want []", body)
	}
	for _, rq := range []string{
		"per_page=0", "per_page=1&page=3", "per_page=100", "per_page=101&page=2", "per_page=-3",
		"per_page=-3&page=2", "per_page=x&page=y", "state=closed", "state=open&per_page=7&page=2", "state=all",
	} {
		p.compare(t, list, rq)
	}
}

// TestGitHubIssueWithoutNumberIs500: an ID ToGHWire rejects answers 500
// with ToGHWire's message, on the list route and on its own GET.
func TestGitHubIssueWithoutNumberIs500(t *testing.T) {
	store := tracker.NewStore()
	created := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	for _, id := range []string{"FAUCET#1", "FAUCET-2", "FAUCET#x"} {
		if err := store.Put(tracker.Issue{ID: id, Controller: tracker.FAUCET, Title: id, Created: created}); err != nil {
			t.Fatal(err)
		}
	}
	p := githubPair(store)
	p.compare(t, "/repos/faucetsdn/faucet/issues/1", "")
	for _, path := range []string{"/repos/faucetsdn/faucet/issues", "/repos/faucetsdn/faucet/issues/x"} {
		if rec := serve(p.got, path, ""); rec.Code != http.StatusInternalServerError {
			t.Errorf("GET %s: %d, want 500", path, rec.Code)
		}
		p.compare(t, path, "")
	}
	p.compare(t, "/repos/faucetsdn/faucet/issues", "per_page=1")
}

// FuzzReplicaPageMatchesEncoder holds the spliced pages and issues to
// the json.Encoder reference over fuzzed query parameters and issue
// text: HTML and Unicode escapes, invalid UTF-8, and empty or absent
// labels and comments. Every page answered 200 must also carry its
// own length as Content-Length.
func FuzzReplicaPageMatchesEncoder(f *testing.F) {
	f.Add("startAt=1&maxResults=2", "<b>crash</b> &  ", "line\nbreak \"quoted\"", "", uint8(0))
	f.Add("project=ONOS&severity=critical&page=2&per_page=1", "naïve ☃", "\xff\xfe", "bug", uint8(7))
	f.Add("status=closed&state=closed", "", "", "", uint8(15))
	f.Add("startAt=9&page=9&per_page=-1", "t", "d", "<script>", uint8(2))
	f.Fuzz(func(t *testing.T, rawQuery, title, text, label string, shape uint8) {
		created := time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC)
		jira, gh := tracker.NewStore(), tracker.NewStore()
		for i, ctl := range []tracker.Controller{tracker.ONOS, tracker.CORD, tracker.ONOS, tracker.FAUCET, tracker.FAUCET, tracker.FAUCET} {
			iss := tracker.Issue{
				Controller: ctl, Title: title, Description: text,
				Severity: tracker.Severity(1 + i%4), Status: tracker.Status(1 + (i+int(shape))%4),
				Created: created.Add(time.Duration(i%3) * time.Hour),
			}
			if shape&1 != 0 {
				iss.Labels = []string{label}
			} else if shape&2 != 0 {
				iss.Labels = []string{}
			}
			if shape&4 != 0 {
				iss.Comments = []tracker.Comment{{Author: label, Body: text, Created: created}}
			}
			if shape&8 != 0 {
				iss.Resolved = created.Add(48 * time.Hour)
			}
			store := jira
			iss.ID = fmt.Sprintf("%s-%d", ctl, i)
			if ctl == tracker.FAUCET {
				store, iss.ID = gh, fmt.Sprintf("FAUCET#%d", i)
			}
			if err := store.Put(iss); err != nil {
				t.Fatal(err)
			}
		}
		jp, gp := jiraPair(jira), githubPair(gh)
		jp.compare(t, "/rest/api/2/search", rawQuery)
		gp.compare(t, "/repos/faucetsdn/faucet/issues", rawQuery)
		for _, rec := range []*httptest.ResponseRecorder{
			serve(jp.got, "/rest/api/2/search", rawQuery),
			serve(gp.got, "/repos/faucetsdn/faucet/issues", rawQuery),
		} {
			if got := rec.Header().Get("Content-Length"); rec.Code == http.StatusOK && got != strconv.Itoa(rec.Body.Len()) {
				t.Fatalf("page of %d bytes sent Content-Length %q", rec.Body.Len(), got)
			}
		}
		for i := 0; i < 6; i++ {
			jp.compare(t, fmt.Sprintf("/rest/api/2/issue/ONOS-%d", i), "")
			gp.compare(t, fmt.Sprintf("/repos/faucetsdn/faucet/issues/%d", i), "")
		}
	})
}
