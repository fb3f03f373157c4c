package trackerd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sdnbugs/internal/tracker"
)

// JIRATime is JIRA's timestamp format.
const JIRATime = "2006-01-02T15:04:05.000-0700"

// JIRAIssue is the JIRA issue JSON shape.
type JIRAIssue struct {
	Key    string     `json:"key"`
	Fields JIRAFields `json:"fields"`
}

// JIRAFields is the fields object of a JIRA issue.
type JIRAFields struct {
	Summary        string       `json:"summary"`
	Description    string       `json:"description"`
	Priority       JIRANamed    `json:"priority"`
	Status         JIRANamed    `json:"status"`
	Project        JIRANamed    `json:"project"`
	Created        string       `json:"created"`
	ResolutionDate string       `json:"resolutiondate,omitempty"`
	Labels         []string     `json:"labels,omitempty"`
	Comment        JIRAComments `json:"comment"`
}

// JIRANamed is JIRA's ubiquitous {"name": ...} object.
type JIRANamed struct {
	Name string `json:"name"`
}

// JIRAComments is the comment container of a JIRA issue.
type JIRAComments struct {
	Comments []JIRAComment `json:"comments"`
	Total    int           `json:"total"`
}

// JIRAComment is one JIRA comment.
type JIRAComment struct {
	Author  JIRANamed `json:"author"`
	Body    string    `json:"body"`
	Created string    `json:"created"`
}

// JIRASearchResponse is the /rest/api/2/search envelope.
type JIRASearchResponse struct {
	StartAt    int         `json:"startAt"`
	MaxResults int         `json:"maxResults"`
	Total      int         `json:"total"`
	Issues     []JIRAIssue `json:"issues"`
}

// ToJIRAWire renders a neutral issue in the JIRA wire shape.
func ToJIRAWire(iss tracker.Issue) JIRAIssue {
	w := JIRAIssue{
		Key: iss.ID,
		Fields: JIRAFields{
			Summary:     iss.Title,
			Description: iss.Description,
			Priority:    JIRANamed{Name: SeverityToPriority(iss.Severity)},
			Status:      JIRANamed{Name: StatusName(iss.Status)},
			Project:     JIRANamed{Name: iss.Controller.String()},
			Created:     iss.Created.Format(JIRATime),
			Labels:      iss.Labels,
		},
	}
	if !iss.Resolved.IsZero() {
		w.Fields.ResolutionDate = iss.Resolved.Format(JIRATime)
	}
	for _, c := range iss.Comments {
		w.Fields.Comment.Comments = append(w.Fields.Comment.Comments, JIRAComment{
			Author:  JIRANamed{Name: c.Author},
			Body:    c.Body,
			Created: c.Created.Format(JIRATime),
		})
	}
	w.Fields.Comment.Total = len(w.Fields.Comment.Comments)
	return w
}

// FromJIRAWire converts a JIRA wire issue back to the neutral model.
func FromJIRAWire(wi JIRAIssue) (tracker.Issue, error) {
	iss := tracker.Issue{
		ID:          wi.Key,
		Title:       wi.Fields.Summary,
		Description: wi.Fields.Description,
		Severity:    PriorityToSeverity(wi.Fields.Priority.Name),
		Status:      ParseStatusName(wi.Fields.Status.Name),
		Labels:      wi.Fields.Labels,
	}
	if ctl, err := tracker.ParseController(wi.Fields.Project.Name); err == nil {
		iss.Controller = ctl
	}
	var err error
	if iss.Created, err = time.Parse(JIRATime, wi.Fields.Created); err != nil {
		return iss, fmt.Errorf("trackerd: bad created time %q: %w", wi.Fields.Created, err)
	}
	if wi.Fields.ResolutionDate != "" {
		if iss.Resolved, err = time.Parse(JIRATime, wi.Fields.ResolutionDate); err != nil {
			return iss, fmt.Errorf("trackerd: bad resolution time %q: %w", wi.Fields.ResolutionDate, err)
		}
	}
	for _, c := range wi.Fields.Comment.Comments {
		created, err := time.Parse(JIRATime, c.Created)
		if err != nil {
			return iss, fmt.Errorf("trackerd: bad comment time %q: %w", c.Created, err)
		}
		iss.Comments = append(iss.Comments, tracker.Comment{
			Author: c.Author.Name, Body: c.Body, Created: created,
		})
	}
	return iss, nil
}

// SeverityToPriority maps the neutral severity onto JIRA priority names.
func SeverityToPriority(s tracker.Severity) string {
	switch s {
	case tracker.SeverityBlocker:
		return "Blocker"
	case tracker.SeverityCritical:
		return "Critical"
	case tracker.SeverityMajor:
		return "Major"
	case tracker.SeverityMinor:
		return "Minor"
	default:
		return "Trivial"
	}
}

// PriorityToSeverity maps a JIRA priority name back to a severity.
func PriorityToSeverity(name string) tracker.Severity {
	switch strings.ToLower(name) {
	case "blocker":
		return tracker.SeverityBlocker
	case "critical":
		return tracker.SeverityCritical
	case "major":
		return tracker.SeverityMajor
	case "minor":
		return tracker.SeverityMinor
	default:
		return tracker.SeverityTrivial
	}
}

// StatusName renders a status in JIRA's display form.
func StatusName(s tracker.Status) string {
	switch s {
	case tracker.StatusClosed:
		return "Closed"
	case tracker.StatusResolved:
		return "Resolved"
	case tracker.StatusInProgress:
		return "In Progress"
	default:
		return "Open"
	}
}

// ParseStatusName parses JIRA's display form (and the query-parameter
// spellings) back to a status.
func ParseStatusName(name string) tracker.Status {
	switch strings.ToLower(name) {
	case "closed":
		return tracker.StatusClosed
	case "resolved":
		return tracker.StatusResolved
	case "in progress", "in-progress":
		return tracker.StatusInProgress
	case "open":
		return tracker.StatusOpen
	default:
		return tracker.StatusUnknown
	}
}

// jiraAPI is the JIRA dialect of the serving engine.
type jiraAPI struct {
	src *tracker.Replica
}

// newJIRAAPI serves store through a replica of JIRA wire encodings.
func newJIRAAPI(store *tracker.Store) *jiraAPI {
	return &jiraAPI{src: tracker.NewReplica(store, encodeJIRA)}
}

// encodeJIRA is the JIRA dialect's replica encoder: the bytes
// json.Encoder writes for ToJIRAWire(*iss), minus its newline.
func encodeJIRA(iss *tracker.Issue) ([]byte, error) {
	return json.Marshal(ToJIRAWire(*iss))
}

// jiraQuery parses the JIRA search parameters: project, severity,
// status, startAt and maxResults (default 50, at most 200).
func jiraQuery(qs url.Values) (tracker.Query, error) {
	q := tracker.Query{}
	if p := qs.Get("project"); p != "" {
		ctl, err := tracker.ParseController(p)
		if err != nil {
			return q, err
		}
		q.Controller = ctl
	}
	if sev := qs.Get("severity"); sev != "" {
		s, err := tracker.ParseSeverity(strings.ToLower(sev))
		if err != nil {
			return q, err
		}
		q.MinSeverity = s
	}
	if st := qs.Get("status"); st != "" {
		q.Status = ParseStatusName(st)
	}
	q.Offset = atoiDefault(qs.Get("startAt"), 0)
	q.Limit = atoiDefault(qs.Get("maxResults"), 50)
	if q.Limit > 200 {
		q.Limit = 200
	}
	return q, nil
}

func (a *jiraAPI) handleSearch(w http.ResponseWriter, r *http.Request) {
	q, err := jiraQuery(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	page, total := a.src.List(q)
	// The JIRASearchResponse envelope, field by field.
	head := make([]byte, 0, 96)
	head = append(head, `{"startAt":`...)
	head = strconv.AppendInt(head, int64(q.Offset), 10)
	head = append(head, `,"maxResults":`...)
	head = strconv.AppendInt(head, int64(q.Limit), 10)
	head = append(head, `,"total":`...)
	head = strconv.AppendInt(head, int64(total), 10)
	head = append(head, `,"issues":`...)
	writePage(w, head, page, "null", "}\n")
}

func (a *jiraAPI) handleIssue(w http.ResponseWriter, r *http.Request) {
	e, ok := a.src.Get(r.PathValue("key"))
	if !ok {
		http.Error(w, "issue not found", http.StatusNotFound)
		return
	}
	writeIssue(w, e)
}
