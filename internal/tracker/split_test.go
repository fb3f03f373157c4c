package tracker_test

import (
	"testing"

	"sdnbugs/internal/corpus"
	"sdnbugs/internal/tracker"
)

func TestSplitStoresFollowsTrackerFor(t *testing.T) {
	corp, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	jira, github, err := tracker.SplitStores(corp.Issues)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[tracker.TrackerKind]*tracker.Store{tracker.KindJIRA: jira, tracker.KindGitHub: github}
	for _, iss := range corp.Issues {
		kind := tracker.TrackerFor(iss.Controller)
		for k, st := range stores {
			_, err := st.Get(iss.ID)
			if in := err == nil; in != (k == kind) {
				t.Fatalf("%s (%v, tracker %v): in %v store = %v", iss.ID, iss.Controller, kind, k, in)
			}
		}
	}
	if jira.Len()+github.Len() != len(corp.Issues) || jira.Len() == 0 || github.Len() == 0 {
		t.Errorf("split %d issues into %d jira + %d github", len(corp.Issues), jira.Len(), github.Len())
	}

	if _, _, err := tracker.SplitStores([]tracker.Issue{{ID: "X-1"}}); err == nil {
		t.Error("an issue with no tracker was stored")
	}
}
