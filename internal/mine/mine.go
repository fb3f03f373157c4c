// Package mine is the resumable mining driver: it pages issues out of
// the JIRA and GitHub tracker simulators into a crash-consistent
// tracker.DurableStore, checkpointing after every page. Each page is
// persisted issue-by-issue and then the paging cursor is saved, in that
// order — so a crash at any point (mid-page, between issues and cursor,
// mid-fsync) loses at most the cursor advance, and the next run
// re-fetches one page whose re-Puts are idempotent. The recovered
// corpus is therefore byte-identical to an uninterrupted run, which is
// exactly what experiment E23 asserts.
package mine

import (
	"context"
	"encoding/json"
	"fmt"

	"sdnbugs/internal/tracker"
	"sdnbugs/internal/trackerd"
)

// Config drives one mining run.
type Config struct {
	// JIRA mines the JIRA tracker when non-nil. The client is copied;
	// its OnPage hook is owned by the miner.
	JIRA *trackerd.Client
	// JIRASearch filters the JIRA search (zero value = everything).
	JIRASearch trackerd.JIRASearch
	// GitHub mines the GitHub tracker when non-nil (copied, like JIRA).
	GitHub *trackerd.Client
	// GitHubList names the repository and state to list.
	GitHubList trackerd.GitHubList
	// Store receives every mined issue and the paging cursors.
	Store *tracker.DurableStore
}

// Result summarizes a mining run.
type Result struct {
	// JIRAFetched and GitHubFetched count issues fetched in this run.
	JIRAFetched, GitHubFetched int
	// Restored counts issues already recovered from the state directory
	// when the run started (non-zero exactly when resuming).
	Restored int
	// Total is the corpus size when the run finished.
	Total int
}

// Run mines all configured trackers into cfg.Store, resuming from any
// cursors the store already holds. On error (including a disk crash
// mid-run) everything checkpointed so far is durable; calling Run again
// on a reopened store continues where the last checkpoint stood.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Store == nil {
		return Result{}, fmt.Errorf("mine: no store configured")
	}
	res := Result{Restored: cfg.Store.Len()}
	// Each tracker's cursor is saved under its name as the one-field
	// JSON object {"<field>":N}: {"start_at":N} for JIRA, {"page":N}
	// for GitHub.
	for _, t := range []struct {
		name, field string
		client      *trackerd.Client
		listing     trackerd.Listing
		fetched     *int
	}{
		{"jira", "start_at", cfg.JIRA, cfg.JIRASearch, &res.JIRAFetched},
		{"github", "page", cfg.GitHub, cfg.GitHubList, &res.GitHubFetched},
	} {
		if t.client == nil {
			continue
		}
		n, err := mineTracker(ctx, cfg.Store, t.name, t.field, *t.client, t.listing)
		*t.fetched = n
		if err != nil {
			res.Total = cfg.Store.Len()
			return res, err
		}
	}
	res.Total = cfg.Store.Len()
	return res, nil
}

// mineTracker resumes one tracker's listing from the cursor saved
// under name, checkpointing every page into st.
func mineTracker(ctx context.Context, st *tracker.DurableStore, name, field string, cl trackerd.Client, l trackerd.Listing) (fetched int, err error) {
	var state map[string]int
	if raw, ok := st.Cursor(name); ok {
		if err := json.Unmarshal(raw, &state); err != nil {
			return 0, fmt.Errorf("mine: corrupt %s cursor: %w", name, err)
		}
	}
	cur := trackerd.Cursor{Next: state[field]}
	persisted := 0
	cl.OnPage = func(c *trackerd.Cursor) error {
		// Issues first, cursor last: re-fetching a page is idempotent,
		// skipping one is not.
		for _, iss := range c.Issues[persisted:] {
			if err := st.Put(iss); err != nil {
				return err
			}
		}
		fetched += len(c.Issues) - persisted
		persisted = len(c.Issues)
		raw, _ := json.Marshal(map[string]int{field: c.Next}) // cannot fail
		return st.SaveCursor(name, raw)
	}
	if err := cl.Resume(ctx, l, &cur); err != nil {
		return fetched, fmt.Errorf("mine: %s: %w", name, err)
	}
	return fetched, nil
}
