package trackerd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"sdnbugs/internal/resilience"
	"sdnbugs/internal/tracker"
)

// Mining client hardening.
const (
	// userAgent identifies the miner; real trackers (and the
	// chaos-wrapped simulators) throttle anonymous clients harder.
	userAgent = "sdnbugs-miner/1.0"
	// maxBodyBytes caps how much of a response body is read.
	maxBodyBytes = 10 << 20
	// defaultMaxPages bounds a paging loop against servers whose total
	// keeps growing (or lying).
	defaultMaxPages = 1000
)

// defaultClient is used when Client.HTTPClient is nil: a retrying
// transport with exponential backoff, full jitter, and Retry-After
// honoring, so transient tracker failures never surface to callers.
var defaultClient = &http.Client{Transport: resilience.NewTransport(nil, resilience.Policy{
	MaxAttempts:       4,
	BaseDelay:         50 * time.Millisecond,
	MaxDelay:          2 * time.Second,
	PerAttemptTimeout: 30 * time.Second,
}, nil)}

// Client mines issues from a JIRA-like or GitHub-like server; the
// Listing passed to FetchAll or Resume picks the dialect.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to a resilient, retrying client (4 attempts,
	// exponential backoff) — pass a plain http.Client to opt out.
	HTTPClient *http.Client
	// PageSize is the page size (default 50 for JIRA, 30 for GitHub).
	PageSize int
	// MaxPages caps a single FetchAll/Resume paging loop (default 1000).
	MaxPages int
	// OnPage, when set, is called after every completed page with the
	// advanced cursor, before the loop decides whether to continue — so
	// a checkpointing caller (the durable miner) sees the final page
	// too. Returning an error aborts the run; the cursor keeps every
	// page fetched so far.
	OnPage func(*Cursor) error
}

// Cursor is a resumable position in a paged listing. After a failed
// Resume the cursor holds every fully-fetched page, so retrying picks
// up from the last completed page instead of the first.
type Cursor struct {
	// Next is the position to request next: the startAt offset for
	// JIRA, the page number for GitHub (pages start at 1; the zero
	// value is normalized to 1).
	Next int
	// Issues accumulates the issues fetched so far.
	Issues []tracker.Issue
}

// Listing is a paged query in one wire dialect. Its methods are
// unexported, so JIRASearch and GitHubList are the only listings.
type Listing interface {
	// defaults returns the page size used when Client.PageSize is 0 and
	// the first cursor position.
	defaults() (pageSize, first int)
	// request returns the path and query of the page at position next.
	request(next, size int) (string, url.Values)
	// decode reads one page, the position after it, and whether the
	// listing has ended.
	decode(body io.Reader, next, size int) (page []tracker.Issue, after int, end bool, err error)
}

// JIRASearch filters a /rest/api/2/search listing; the zero value
// lists everything. It stops at the server's total.
type JIRASearch struct {
	// Project restricts to one JIRA project.
	Project string
	// Severity keeps issues at least this severe.
	Severity string
	// Status restricts to a lifecycle state.
	Status string
}

// GitHubList is a repository's issue listing. It stops on a short page.
// Severity comes from the keyword heuristic of tracker.ExtractSeverity.
type GitHubList struct {
	// Repo is the owner/name path, e.g. "faucetsdn/faucet".
	Repo string
	// State filters by "open" or "closed" ("" = all).
	State string
}

// FetchAll pages through l until every matching issue has been
// retrieved.
func (c *Client) FetchAll(ctx context.Context, l Listing) ([]tracker.Issue, error) {
	var cur Cursor
	if err := c.Resume(ctx, l, &cur); err != nil {
		return nil, err
	}
	return cur.Issues, nil
}

// Resume continues a paged listing from cur, appending each completed
// page before advancing, so the cursor stays valid if a page fails
// mid-run. Paging is bounded by MaxPages, and a server that stops
// serving before the listing ends (an inconsistent total) is detected
// rather than looped on.
func (c *Client) Resume(ctx context.Context, l Listing, cur *Cursor) error {
	size, first := l.defaults()
	if c.PageSize > 0 {
		size = c.PageSize
	}
	maxPages := c.MaxPages
	if maxPages <= 0 {
		maxPages = defaultMaxPages
	}
	cur.Next = max(cur.Next, first)
	for pages := 0; ; pages++ {
		if pages >= maxPages {
			return fmt.Errorf("trackerd: listing exceeded %d pages (next=%d) — refusing to page forever", maxPages, cur.Next)
		}
		page, after, end, err := c.fetchPage(ctx, l, cur.Next, size)
		if err != nil {
			return err
		}
		cur.Issues = append(cur.Issues, page...)
		cur.Next = after
		if c.OnPage != nil {
			if err := c.OnPage(cur); err != nil {
				return fmt.Errorf("trackerd: page checkpoint: %w", err)
			}
		}
		if end {
			return nil
		}
		if len(page) == 0 {
			return fmt.Errorf("trackerd: no paging progress at %d (inconsistent server total)", cur.Next)
		}
	}
}

// fetchPage GETs one page with the mining headers, draining (bounded)
// error bodies so the connection can be reused, and decodes at most
// maxBodyBytes of the response.
func (c *Client) fetchPage(ctx context.Context, l Listing, next, size int) ([]tracker.Issue, int, bool, error) {
	path, q := l.request(next, size)
	u, err := url.Parse(c.BaseURL + path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("trackerd: bad base URL: %w", err)
	}
	u.RawQuery = q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, 0, false, fmt.Errorf("trackerd: build request: %w", err)
	}
	req.Header.Set("Accept", "application/json")
	req.Header.Set("User-Agent", userAgent)
	hc := c.HTTPClient
	if hc == nil {
		hc = defaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, false, fmt.Errorf("trackerd: list %s: %w", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, 0, false, fmt.Errorf("trackerd: list %s returned %s", path, resp.Status)
	}
	page, after, end, err := l.decode(io.LimitReader(resp.Body, maxBodyBytes), next, size)
	if err != nil {
		return nil, 0, false, fmt.Errorf("trackerd: decode %s: %w", path, err)
	}
	return page, after, end, nil
}

func (JIRASearch) defaults() (int, int) { return 50, 0 }

func (s JIRASearch) request(startAt, size int) (string, url.Values) {
	q := url.Values{}
	for k, v := range map[string]string{"project": s.Project, "severity": s.Severity, "status": s.Status} {
		if v != "" {
			q.Set(k, v)
		}
	}
	q.Set("startAt", strconv.Itoa(startAt))
	q.Set("maxResults", strconv.Itoa(size))
	return "/rest/api/2/search", q
}

func (JIRASearch) decode(body io.Reader, startAt, _ int) ([]tracker.Issue, int, bool, error) {
	var sr JIRASearchResponse
	if err := json.NewDecoder(body).Decode(&sr); err != nil {
		return nil, 0, false, err
	}
	page := make([]tracker.Issue, 0, len(sr.Issues))
	for _, wi := range sr.Issues {
		iss, err := FromJIRAWire(wi)
		if err != nil {
			return nil, 0, false, err
		}
		page = append(page, iss)
	}
	after := startAt + len(page)
	return page, after, after >= sr.Total, nil
}

func (GitHubList) defaults() (int, int) { return 30, 1 }

func (l GitHubList) request(page, size int) (string, url.Values) {
	q := url.Values{}
	if l.State != "" {
		q.Set("state", l.State)
	}
	q.Set("page", strconv.Itoa(page))
	q.Set("per_page", strconv.Itoa(size))
	return "/repos/" + l.Repo + "/issues", q
}

func (GitHubList) decode(body io.Reader, page, size int) ([]tracker.Issue, int, bool, error) {
	var wires []GHIssue
	if err := json.NewDecoder(body).Decode(&wires); err != nil {
		return nil, 0, false, err
	}
	issues := make([]tracker.Issue, 0, len(wires))
	for _, wi := range wires {
		issues = append(issues, FromGHWire(wi, tracker.FAUCET))
	}
	return issues, page + 1, len(issues) < size, nil
}
