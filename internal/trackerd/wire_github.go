package trackerd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"sdnbugs/internal/tracker"
)

// GHIssue is the GitHub issue JSON shape (subset).
type GHIssue struct {
	Number    int        `json:"number"`
	Title     string     `json:"title"`
	Body      string     `json:"body"`
	State     string     `json:"state"`
	CreatedAt time.Time  `json:"created_at"`
	ClosedAt  *time.Time `json:"closed_at"`
	Labels    []GHLabel  `json:"labels"`
	Comments  []GHNote   `json:"comments_data,omitempty"`
}

// GHLabel is one GitHub label.
type GHLabel struct {
	Name string `json:"name"`
}

// GHNote is one GitHub issue comment.
type GHNote struct {
	User      GHUser    `json:"user"`
	Body      string    `json:"body"`
	CreatedAt time.Time `json:"created_at"`
}

// GHUser is GitHub's {"login": ...} user object.
type GHUser struct {
	Login string `json:"login"`
}

// ToGHWire renders a neutral issue in the GitHub wire shape.
func ToGHWire(iss tracker.Issue) (GHIssue, error) {
	num, err := IssueNumber(iss.ID)
	if err != nil {
		return GHIssue{}, err
	}
	w := GHIssue{
		Number:    num,
		Title:     iss.Title,
		Body:      iss.Description,
		State:     "open",
		CreatedAt: iss.Created,
	}
	if iss.Status == tracker.StatusClosed || iss.Status == tracker.StatusResolved {
		w.State = "closed"
		// GitHub would expose closed_at, but as in the paper's data set
		// the simulator's FAUCET issues carry no resolution timestamp;
		// only set it when the store has one.
		if !iss.Resolved.IsZero() {
			t := iss.Resolved
			w.ClosedAt = &t
		}
	}
	for _, l := range iss.Labels {
		w.Labels = append(w.Labels, GHLabel{Name: l})
	}
	for _, c := range iss.Comments {
		w.Comments = append(w.Comments, GHNote{
			User: GHUser{Login: c.Author}, Body: c.Body, CreatedAt: c.Created,
		})
	}
	return w, nil
}

// FromGHWire converts a GitHub wire issue to the neutral model for
// controller ctl, applying the keyword severity heuristic of the
// paper's methodology (§II-B) — GitHub has no severity field.
func FromGHWire(wi GHIssue, ctl tracker.Controller) tracker.Issue {
	iss := tracker.Issue{
		ID:          fmt.Sprintf("%s#%d", ctl.String(), wi.Number),
		Controller:  ctl,
		Title:       wi.Title,
		Description: wi.Body,
		Created:     wi.CreatedAt,
		Status:      tracker.StatusOpen,
	}
	if wi.State == "closed" {
		iss.Status = tracker.StatusClosed
		if wi.ClosedAt != nil {
			iss.Resolved = *wi.ClosedAt
		}
	}
	for _, l := range wi.Labels {
		iss.Labels = append(iss.Labels, l.Name)
	}
	for _, c := range wi.Comments {
		iss.Comments = append(iss.Comments, tracker.Comment{
			Author: c.User.Login, Body: c.Body, Created: c.CreatedAt,
		})
	}
	iss.Severity = tracker.ExtractSeverity(iss.Text())
	return iss
}

// IssueNumber extracts N from IDs of the form "<project>#N".
func IssueNumber(id string) (int, error) {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '#' {
			n, err := strconv.Atoi(id[i+1:])
			if err != nil {
				return 0, fmt.Errorf("trackerd: bad issue id %q: %w", id, err)
			}
			return n, nil
		}
	}
	return 0, fmt.Errorf("trackerd: issue id %q has no number", id)
}

// githubAPI is the GitHub dialect of the serving engine, answering for
// a single repository whose issues carry "<ctl>#N" IDs.
type githubAPI struct {
	src *tracker.Replica
	ctl tracker.Controller
}

// newGitHubAPI serves store's ctl issues through a replica of GitHub
// wire encodings.
func newGitHubAPI(store *tracker.Store, ctl tracker.Controller) *githubAPI {
	return &githubAPI{src: tracker.NewReplica(store, encodeGitHub), ctl: ctl}
}

// encodeGitHub is the GitHub dialect's replica encoder: the bytes
// json.Encoder writes for ToGHWire(*iss), minus its newline, or
// ToGHWire's error for an ID without a number.
func encodeGitHub(iss *tracker.Issue) ([]byte, error) {
	wi, err := ToGHWire(*iss)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wi)
}

// githubQuery parses the GitHub list parameters for ctl's issues:
// state, page (from 1) and per_page (default 30, at most 100).
func githubQuery(qs url.Values, ctl tracker.Controller) tracker.Query {
	q := tracker.Query{Controller: ctl}
	switch qs.Get("state") {
	case "closed":
		q.Status = tracker.StatusClosed
	case "open":
		q.Status = tracker.StatusOpen
	}
	page := atoiGH(qs.Get("page"), 1)
	if page < 1 {
		page = 1
	}
	perPage := atoiGH(qs.Get("per_page"), 30)
	if perPage > 100 {
		perPage = 100
	}
	q.Offset = (page - 1) * perPage
	q.Limit = perPage
	return q
}

func (a *githubAPI) handleList(w http.ResponseWriter, r *http.Request) {
	page, _ := a.src.List(githubQuery(r.URL.Query(), a.ctl))
	writePage(w, nil, page, "[]", "\n")
}

func (a *githubAPI) handleGet(w http.ResponseWriter, r *http.Request) {
	e, ok := a.src.Get(a.ctl.String() + "#" + r.PathValue("number"))
	if !ok {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	writeIssue(w, e)
}

// atoiGH is the GitHub dialect's parameter rule: empty or malformed
// falls back to def, but (unlike the JIRA dialect) negatives pass
// through — the callers clamp page and per_page themselves.
func atoiGH(s string, def int) int {
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return n
}
