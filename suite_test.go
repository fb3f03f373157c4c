package sdnbugs

import (
	"context"
	"strings"
	"testing"
)

// sharedSuite is reused across tests in this package to avoid
// re-running the expensive NLP fits.
var sharedSuite = NewSuite(1)

func TestSuiteLazyInit(t *testing.T) {
	s := NewSuite(2)
	corp, err := s.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(corp.Issues) != 795 {
		t.Errorf("corpus size = %d", len(corp.Issues))
	}
	manual, err := s.Manual()
	if err != nil {
		t.Fatal(err)
	}
	if manual.Len() != 150 {
		t.Errorf("manual size = %d", manual.Len())
	}
	full, err := s.Full()
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != 795 {
		t.Errorf("full size = %d", full.Len())
	}
	// Second call returns the same objects (cached).
	corp2, _ := s.Corpus()
	if corp != corp2 {
		t.Error("corpus should be cached")
	}
}

// runHolds runs ids through the registry one at a time and, in one
// subtest per ID, fails every check that does not hold.
func runHolds(t *testing.T, ids []string, subtest func(*testing.T, ExperimentResult)) {
	t.Helper()
	run, err := sharedSuite.Run(context.Background(), RunOptions{IDs: ids, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range run.Outcomes {
		t.Run(o.ID, func(t *testing.T) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
			if subtest != nil {
				subtest(t, o.Result)
			}
			for _, c := range o.Result.Checks {
				if c.Artifact != o.ID {
					t.Errorf("check %q: artifact %q, want %q", c.Metric, c.Artifact, o.ID)
				}
				if !c.Holds {
					t.Errorf("check failed: %s — paper %q, measured %q", c.Metric, c.Paper, c.Measured)
				}
			}
		})
	}
}

func TestFastExperimentsHold(t *testing.T) {
	// The non-NLP experiments run quickly; every check must hold.
	ids := []string{"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08", "E10",
		"E13", "E14", "E15", "E16", "E17", "E18", "E20", "E21", "E22", "E23", "E24"}
	runHolds(t, ids, func(t *testing.T, res ExperimentResult) {
		if len(res.Checks) == 0 {
			t.Fatal("experiment produced no checks")
		}
		if len(res.Tables) == 0 {
			t.Fatal("experiment produced no tables")
		}
		for _, tbl := range res.Tables {
			if out := tbl.RenderString(); !strings.Contains(out, "##") {
				t.Error("table should render with a title")
			}
		}
	})
}

func TestSlowExperimentsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("NLP experiments are slow; skipped with -short")
	}
	runHolds(t, []string{"E09", "E11", "E12", "E19"}, nil)
}
