// Package tracker defines the tracker-neutral issue model shared by the
// JIRA simulator (ONOS, CORD) and the GitHub-Issues simulator (FAUCET),
// plus the in-memory store both servers are backed by and the severity
// heuristics the miner applies to GitHub issues, which — unlike JIRA —
// carry no explicit severity field (paper §II-B).
package tracker

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Controller identifies one of the studied controller projects.
type Controller int

// Controller values.
const (
	ControllerUnknown Controller = iota
	FAUCET
	ONOS
	CORD
)

// Controllers lists every studied controller.
func Controllers() []Controller { return []Controller{FAUCET, ONOS, CORD} }

func (c Controller) String() string {
	switch c {
	case FAUCET:
		return "FAUCET"
	case ONOS:
		return "ONOS"
	case CORD:
		return "CORD"
	default:
		return "unknown"
	}
}

// ParseController parses the string form produced by String.
func ParseController(s string) (Controller, error) {
	for _, c := range Controllers() {
		if strings.EqualFold(c.String(), s) {
			return c, nil
		}
	}
	return ControllerUnknown, fmt.Errorf("tracker: unknown controller %q", s)
}

// TrackerKind identifies which bug-management system hosts a project.
type TrackerKind int

// TrackerKind values.
const (
	KindUnknown TrackerKind = iota
	KindJIRA
	KindGitHub
)

func (k TrackerKind) String() string {
	switch k {
	case KindJIRA:
		return "jira"
	case KindGitHub:
		return "github"
	default:
		return "unknown"
	}
}

// TrackerFor returns the bug-management system each controller uses:
// JIRA for ONOS and CORD, GitHub for FAUCET (paper §II-B).
func TrackerFor(c Controller) TrackerKind {
	switch c {
	case ONOS, CORD:
		return KindJIRA
	case FAUCET:
		return KindGitHub
	default:
		return KindUnknown
	}
}

// Severity mirrors JIRA severity levels.
type Severity int

// Severity values.
const (
	SeverityUnknown Severity = iota
	SeverityBlocker
	SeverityCritical
	SeverityMajor
	SeverityMinor
	SeverityTrivial
)

func (s Severity) String() string {
	switch s {
	case SeverityBlocker:
		return "blocker"
	case SeverityCritical:
		return "critical"
	case SeverityMajor:
		return "major"
	case SeverityMinor:
		return "minor"
	case SeverityTrivial:
		return "trivial"
	default:
		return "unknown"
	}
}

// ParseSeverity parses the string form produced by String.
func ParseSeverity(str string) (Severity, error) {
	for _, s := range []Severity{SeverityBlocker, SeverityCritical, SeverityMajor, SeverityMinor, SeverityTrivial} {
		if s.String() == str {
			return s, nil
		}
	}
	return SeverityUnknown, fmt.Errorf("tracker: unknown severity %q", str)
}

// Critical reports whether the severity is in the paper's "critical
// bug" band (blocker or critical).
func (s Severity) Critical() bool {
	return s == SeverityBlocker || s == SeverityCritical
}

// Status is the lifecycle state of an issue.
type Status int

// Status values.
const (
	StatusUnknown Status = iota
	StatusOpen
	StatusInProgress
	StatusResolved
	StatusClosed
)

func (s Status) String() string {
	switch s {
	case StatusOpen:
		return "open"
	case StatusInProgress:
		return "in-progress"
	case StatusResolved:
		return "resolved"
	case StatusClosed:
		return "closed"
	default:
		return "unknown"
	}
}

// Comment is a single discussion entry on an issue.
type Comment struct {
	Author  string    `json:"author"`
	Body    string    `json:"body"`
	Created time.Time `json:"created"`
}

// Issue is one bug report, tracker-neutral.
type Issue struct {
	// ID is the tracker-native key, e.g. "ONOS-1234" or "faucet#567".
	ID string `json:"id"`
	// Controller is the owning project.
	Controller Controller `json:"-"`
	// ControllerName is the JSON wire form of Controller.
	ControllerName string    `json:"controller"`
	Title          string    `json:"title"`
	Description    string    `json:"description"`
	Comments       []Comment `json:"comments,omitempty"`
	// Severity is explicit for JIRA projects; for GitHub projects it is
	// SeverityUnknown at the source and recovered by keyword heuristics.
	Severity Severity  `json:"-"`
	Status   Status    `json:"-"`
	Created  time.Time `json:"created"`
	// Resolved is the zero time while the issue is open, and for GitHub
	// projects even when closed (the paper could not obtain FAUCET
	// resolution timestamps).
	Resolved time.Time `json:"resolved,omitzero"`
	// Labels are free-form tracker labels, e.g. "bug", "crash".
	Labels []string `json:"labels,omitempty"`
	// FixRef is the Gerrit change or PR that closed the issue.
	FixRef string `json:"fix_ref,omitempty"`
}

// ResolutionTime returns the open-to-resolved duration and whether it
// is known.
func (i *Issue) ResolutionTime() (time.Duration, bool) {
	if i.Resolved.IsZero() || i.Resolved.Before(i.Created) {
		return 0, false
	}
	return i.Resolved.Sub(i.Created), true
}

// Text returns the title, description and comments concatenated — the
// document the NLP pipeline consumes.
func (i *Issue) Text() string {
	var b strings.Builder
	b.WriteString(i.Title)
	b.WriteString("\n")
	b.WriteString(i.Description)
	for _, c := range i.Comments {
		b.WriteString("\n")
		b.WriteString(c.Body)
	}
	return b.String()
}

// severityKeywords drive the keyword heuristic for GitHub severity
// extraction (paper §II-B, following [35]).
var severityKeywords = []struct {
	severity Severity
	words    []string
}{
	{SeverityBlocker, []string{"blocker", "outage", "data loss", "security vulnerability", "cannot start", "unusable"}},
	{SeverityCritical, []string{"crash", "critical", "severe", "exception", "traceback", "fatal", "deadlock", "panic", "downtime", "fails to", "broken"}},
	{SeverityMajor, []string{"incorrect", "wrong", "fails", "error", "unexpected", "regression", "leak"}},
	{SeverityMinor, []string{"slow", "minor", "cosmetic", "warning", "typo"}},
}

// ExtractSeverity applies the keyword heuristic to an issue's text and
// returns the inferred severity (SeverityTrivial when nothing matches).
func ExtractSeverity(text string) Severity {
	lower := strings.ToLower(text)
	for _, sk := range severityKeywords {
		for _, w := range sk.words {
			if strings.Contains(lower, w) {
				return sk.severity
			}
		}
	}
	return SeverityTrivial
}

// Store is a concurrency-safe in-memory issue store with the filtering
// and pagination both tracker simulators expose.
type Store struct {
	mu      sync.RWMutex
	pos     map[string]int // ID → position in issues
	issues  []*Issue       // insertion order, for stable pagination
	version uint64         // bumped on every Put; lets replicas detect staleness
}

// ErrNotFound is returned for lookups of unknown issue IDs.
var ErrNotFound = errors.New("tracker: issue not found")

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{pos: make(map[string]int)}
}

// Put inserts or replaces an issue (copied). It always installs a
// fresh *Issue and never mutates one it has installed, so an installed
// issue is immutable: Replica views alias them instead of copying.
func (s *Store) Put(issue Issue) error {
	if issue.ID == "" {
		return errors.New("tracker: issue ID required")
	}
	issue.ControllerName = issue.Controller.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := issue
	cp.Comments = append([]Comment(nil), issue.Comments...)
	cp.Labels = append([]string(nil), issue.Labels...)
	if i, exists := s.pos[issue.ID]; exists {
		s.issues[i] = &cp
	} else {
		s.pos[issue.ID] = len(s.issues)
		s.issues = append(s.issues, &cp)
	}
	s.version++
	return nil
}

// Version returns a counter that changes whenever the store's contents
// do — the staleness signal Replica refreshes on.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Get returns a copy of the issue with the given ID.
func (s *Store) Get(id string) (Issue, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.pos[id]
	if !ok {
		return Issue{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return *s.issues[i], nil
}

// Len returns the number of stored issues.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.issues)
}

// SplitStores loads issues into one store per tracker, the way the
// real trackers hold them: ONOS and CORD in JIRA, FAUCET in GitHub
// (TrackerFor). An issue whose controller has no tracker is an error.
func SplitStores(issues []Issue) (jira, github *Store, err error) {
	jira, github = NewStore(), NewStore()
	for _, iss := range issues {
		var st *Store
		switch TrackerFor(iss.Controller) {
		case KindJIRA:
			st = jira
		case KindGitHub:
			st = github
		default:
			return nil, nil, fmt.Errorf("tracker: issue %q: controller %v has no tracker", iss.ID, iss.Controller)
		}
		if err := st.Put(iss); err != nil {
			return nil, nil, err
		}
	}
	return jira, github, nil
}

// Query filters issues.
type Query struct {
	// Controller restricts to one project (ControllerUnknown = all).
	Controller Controller
	// MinSeverity keeps issues at least this severe (its numeric value
	// or lower, since Blocker < Critical < ... numerically).
	MinSeverity Severity
	// Status restricts to one status (StatusUnknown = all).
	Status Status
	// CreatedAfter / CreatedBefore bound the creation time when non-zero.
	CreatedAfter, CreatedBefore time.Time
	// Offset and Limit paginate (Limit ≤ 0 = no limit; a negative
	// Offset counts as 0).
	Offset, Limit int
}

// Matches reports whether the issue satisfies every filter in q
// (pagination fields are ignored).
func (q Query) Matches(iss *Issue) bool {
	if q.Controller != ControllerUnknown && iss.Controller != q.Controller {
		return false
	}
	if q.MinSeverity != SeverityUnknown && (iss.Severity == SeverityUnknown || iss.Severity > q.MinSeverity) {
		return false
	}
	if q.Status != StatusUnknown && iss.Status != q.Status {
		return false
	}
	if !q.CreatedAfter.IsZero() && iss.Created.Before(q.CreatedAfter) {
		return false
	}
	if !q.CreatedBefore.IsZero() && iss.Created.After(q.CreatedBefore) {
		return false
	}
	return true
}

// paginate applies q's Offset/Limit to a matched slice.
func (q Query) paginate(matched []*Issue) []*Issue {
	if q.Offset > len(matched) {
		return nil
	}
	matched = matched[max(q.Offset, 0):]
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	return matched
}

// issueLess is the canonical listing order: creation time, then ID.
func issueLess(a, b *Issue) bool {
	if !a.Created.Equal(b.Created) {
		return a.Created.Before(b.Created)
	}
	return a.ID < b.ID
}

// List returns issues matching q, ordered by creation time then ID,
// plus the total number of matches before pagination.
func (s *Store) List(q Query) ([]Issue, int) {
	s.mu.RLock()
	matched := make([]*Issue, 0, len(s.issues))
	for _, iss := range s.issues {
		if q.Matches(iss) {
			matched = append(matched, iss)
		}
	}
	s.mu.RUnlock()

	sort.Slice(matched, func(a, b int) bool { return issueLess(matched[a], matched[b]) })
	total := len(matched)
	matched = q.paginate(matched)
	out := make([]Issue, len(matched))
	for i, iss := range matched {
		out[i] = *iss
	}
	return out, total
}
