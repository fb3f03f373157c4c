package mine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sdnbugs/internal/diskfault"
	"sdnbugs/internal/durable"
	"sdnbugs/internal/tracker"
	"sdnbugs/internal/trackerd"
)

// seedServers builds JIRA and GitHub simulators holding a small
// deterministic corpus and returns their test servers.
func seedServers(t *testing.T, nJira, nGH int) (jiraURL, ghURL string) {
	t.Helper()
	jiraStore, ghStore := tracker.NewStore(), tracker.NewStore()
	base := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < nJira; i++ {
		iss := tracker.Issue{
			ID:          fmt.Sprintf("ONOS-%d", i+1),
			Controller:  tracker.ONOS,
			Title:       fmt.Sprintf("flow rule desync %d", i),
			Description: "switch and store disagree after failover",
			Severity:    tracker.SeverityMajor,
			Status:      tracker.StatusResolved,
			Created:     base.Add(time.Duration(i) * time.Hour),
			Resolved:    base.Add(time.Duration(i)*time.Hour + 48*time.Hour),
			Labels:      []string{"bug"},
		}
		if err := jiraStore.Put(iss); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nGH; i++ {
		iss := tracker.Issue{
			ID:          fmt.Sprintf("FAUCET#%d", i+1),
			Controller:  tracker.FAUCET,
			Title:       fmt.Sprintf("controller crash on malformed packet %d", i),
			Description: "traceback in valve.py",
			Status:      tracker.StatusClosed,
			Created:     base.Add(time.Duration(i) * time.Minute),
			Labels:      []string{"bug"},
		}
		if err := ghStore.Put(iss); err != nil {
			t.Fatal(err)
		}
	}
	js := httptest.NewServer(trackerd.NewJIRAHandler(jiraStore))
	t.Cleanup(js.Close)
	gs := httptest.NewServer(trackerd.NewGitHubHandler(ghStore, "faucetsdn", "faucet"))
	t.Cleanup(gs.Close)
	return js.URL, gs.URL
}

func miningConfig(jiraURL, ghURL string, st *tracker.DurableStore) Config {
	plain := &http.Client{}
	return Config{
		JIRA:       &trackerd.Client{BaseURL: jiraURL, HTTPClient: plain, PageSize: 7},
		GitHub:     &trackerd.Client{BaseURL: ghURL, HTTPClient: plain, PageSize: 7},
		GitHubList: trackerd.GitHubList{Repo: "faucetsdn/faucet"},
		Store:      st,
	}
}

func TestMineRoundTrip(t *testing.T) {
	jiraURL, ghURL := seedServers(t, 23, 11)
	mem := diskfault.NewMemFS()
	d, err := durable.Open("state", durable.Options{FS: mem, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tracker.NewDurableStore(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), miningConfig(jiraURL, ghURL, st))
	if err != nil {
		t.Fatal(err)
	}
	if res.JIRAFetched != 23 || res.GitHubFetched != 11 || res.Total != 34 || res.Restored != 0 {
		t.Fatalf("result = %+v, want 23+11", res)
	}
	fingerprint := st.CorpusBytes()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the corpus is back, and a second run fetches nothing new.
	d2, err := durable.Open("state", durable.Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := tracker.NewDurableStore(d2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st2.Close() }()
	res2, err := Run(context.Background(), miningConfig(jiraURL, ghURL, st2))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Restored != 34 || res2.JIRAFetched != 0 || res2.GitHubFetched != 0 || res2.Total != 34 {
		t.Fatalf("second run = %+v, want pure restore", res2)
	}
	if !bytes.Equal(st2.CorpusBytes(), fingerprint) {
		t.Error("corpus changed across reopen + idempotent re-run")
	}
}

// TestCursorBytesOnDisk pins the persisted cursor format: existing
// state directories resume only if the miner keeps reading and writing
// exactly {"start_at":N} under "jira" and {"page":N} under "github".
func TestCursorBytesOnDisk(t *testing.T) {
	jiraURL, ghURL := seedServers(t, 23, 11)
	mem := diskfault.NewMemFS()
	open := func() *tracker.DurableStore {
		d, err := durable.Open("state", durable.Options{FS: mem})
		if err != nil {
			t.Fatal(err)
		}
		st, err := tracker.NewDurableStore(d)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	if _, err := Run(context.Background(), miningConfig(jiraURL, ghURL, st)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = open()
	defer func() { _ = st.Close() }()
	// 23 JIRA issues end at startAt 23; 11 GitHub issues at 7 per page
	// end after page 2, so the next page is 3.
	for name, want := range map[string]string{"jira": `{"start_at":23}`, "github": `{"page":3}`} {
		raw, ok := st.Cursor(name)
		if !ok || string(raw) != want {
			t.Errorf("cursor %q = %q (present %v), want %q", name, raw, ok, want)
		}
	}
}

// TestMineKillAndResume is the unit-scale version of experiment E23:
// the miner is killed by a disk crash at a range of scheduled points
// and resumed on a reopened store until it finishes; the final corpus
// must be byte-identical to an uninterrupted run's.
func TestMineKillAndResume(t *testing.T) {
	jiraURL, ghURL := seedServers(t, 23, 11)

	clean := func() []byte {
		mem := diskfault.NewMemFS()
		d, err := durable.Open("state", durable.Options{FS: mem, SnapshotEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		st, err := tracker.NewDurableStore(d)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = st.Close() }()
		if _, err := Run(context.Background(), miningConfig(jiraURL, ghURL, st)); err != nil {
			t.Fatal(err)
		}
		return st.CorpusBytes()
	}()

	for _, crashAt := range []int{1, 5, 17, 40, 77} {
		t.Run(fmt.Sprintf("crash%03d", crashAt), func(t *testing.T) {
			mem := diskfault.NewMemFS()
			rounds, fetchedTotal := 0, 0
			crashed := false
			for {
				rounds++
				if rounds > 10 {
					t.Fatal("miner did not converge")
				}
				var fsys diskfault.FS = mem
				if !crashed {
					fsys = diskfault.New(mem, diskfault.Config{Seed: int64(crashAt), CrashAfterOps: crashAt})
				}
				d, err := durable.Open("state", durable.Options{FS: fsys, SnapshotEvery: 10, TakeOver: true})
				if err != nil {
					if errors.Is(err, diskfault.ErrCrashed) {
						crashed = true
						continue // "reboot" and retry without the bomb
					}
					t.Fatal(err)
				}
				st, err := tracker.NewDurableStore(d)
				if err != nil {
					t.Fatal(err)
				}
				res, runErr := Run(context.Background(), miningConfig(jiraURL, ghURL, st))
				fetchedTotal += res.JIRAFetched + res.GitHubFetched
				_ = st.Close()
				if runErr == nil {
					if res.Total != 34 {
						t.Fatalf("converged at %d issues, want 34", res.Total)
					}
					break
				}
				if !errors.Is(runErr, diskfault.ErrCrashed) {
					t.Fatalf("mining failed with a non-crash error: %v", runErr)
				}
				crashed = true
			}
			if !crashed {
				t.Fatalf("crash point %d never fired", crashAt)
			}
			// Page replays may re-fetch issues, never lose them.
			if fetchedTotal < 34 {
				t.Errorf("fetched %d issues total, want >= 34", fetchedTotal)
			}

			d, err := durable.Open("state", durable.Options{FS: mem, TakeOver: true})
			if err != nil {
				t.Fatal(err)
			}
			st, err := tracker.NewDurableStore(d)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = st.Close() }()
			if !bytes.Equal(st.CorpusBytes(), clean) {
				t.Error("recovered corpus differs from clean single-shot run")
			}
		})
	}
}
