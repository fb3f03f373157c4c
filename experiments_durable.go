package sdnbugs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"sdnbugs/internal/chaos"
	"sdnbugs/internal/diskfault"
	"sdnbugs/internal/durable"
	"sdnbugs/internal/engine"
	"sdnbugs/internal/mine"
	"sdnbugs/internal/report"
	"sdnbugs/internal/resilience"
	"sdnbugs/internal/tracker"
	"sdnbugs/internal/trackerd"
)

// registerDurabilityExperiments registers the crash-consistency
// experiment (E23) after the supervisor experiment.
func (s *Suite) registerDurabilityExperiments(r *engine.Registry[ExperimentResult]) {
	registerSuite(r, "E23", "kill-and-resume mining: byte-identical corpus across scheduled disk crashes",
		engine.KindExperiment, s.E23KillAndResumeMining)
}

// e23CrashPoints schedules one disk crash per mining round: the
// filesystem dies on the round's Nth write-class operation, tearing
// any in-flight journal append at a seed-chosen byte.
var e23CrashPoints = []int{7, 25, 60, 120, 200}

// e23Round is one kill-and-resume round's deterministic record.
type e23Round struct {
	crashOp   int // scheduled crash op (0 = final clean round)
	restored  int // issues recovered from disk at the round's open
	replayed  int // journal records replayed at the round's open
	tornBytes int // torn journal tail truncated at the round's open
	snapGen   uint64
	fetched   int // issues fetched from the trackers this round
	crashed   bool
}

// E23KillAndResumeMining is the crash-consistency experiment: the §II-B
// mining pipeline runs against chaos-wrapped trackers (50% fault rate,
// as E21) while its corpus store lives on a fault-injecting filesystem
// that kills the miner at five scheduled crash points — mid-append,
// mid-fsync, mid-snapshot, wherever the schedule lands — tearing the
// in-flight write each time. After every "reboot" the miner resumes
// from the write-ahead journal and snapshots; when it finally
// completes, the corpus must be byte-identical to a clean single-shot
// run. An in-experiment crash matrix additionally reboots a small
// workload at every single write operation and demands prefix-consistent
// recovery — no lost acks, no duplicates, no corrupt records — and a
// concurrent open of the live state directory must fail fast with
// ErrLocked.
func (s *Suite) E23KillAndResumeMining() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E23",
		Title: "kill-and-resume mining: byte-identical corpus across scheduled disk crashes"}
	corp, err := s.Corpus()
	if err != nil {
		return res, err
	}
	srv, err := startTrackerServers(corp, chaos.Config{
		Seed:       s.Seed + 23,
		Rate:       0.5,
		RetryAfter: time.Millisecond,
		Latency:    2 * time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	defer srv.Close()
	ctx := context.Background()

	// Clean single-shot baseline: durable store on a fault-free
	// in-memory disk, plain trackers, plain client.
	cleanBytes, cleanTotal, err := e23CleanMine(ctx, srv.cleanJira.URL, srv.cleanGH.URL)
	if err != nil {
		return res, fmt.Errorf("sdnbugs: E23 baseline mine: %w", err)
	}

	// The campaign: same mining, but through 50%-chaos trackers and on
	// a disk that crashes at each scheduled point. One MemFS plays the
	// disk that survives every "process death".
	mem := diskfault.NewMemFS()
	var rounds []e23Round
	var lockedErr error
	fired := 0
	for i := 0; i <= len(e23CrashPoints); i++ {
		crashOp := 0 // final round: no bomb, the miner must finish
		var fsys diskfault.FS = mem
		if i < len(e23CrashPoints) {
			crashOp = e23CrashPoints[i]
			fsys = diskfault.New(mem, diskfault.Config{Seed: s.Seed + int64(i), CrashAfterOps: crashOp})
		}
		rd, lockErr, err := e23Round1(ctx, fsys, srv.flakyJira.URL, srv.flakyGH.URL, i > 0, i == len(e23CrashPoints))
		rd.crashOp = crashOp
		if err != nil {
			return res, fmt.Errorf("sdnbugs: E23 round %d: %w", i+1, err)
		}
		if lockErr != nil {
			lockedErr = lockErr
		}
		if rd.crashed {
			fired++
		}
		rounds = append(rounds, rd)
	}
	final := rounds[len(rounds)-1]

	// Reopen once more and fingerprint what the campaign left on disk.
	recoveredBytes, recoveredTotal, err := e23Fingerprint(mem)
	if err != nil {
		return res, fmt.Errorf("sdnbugs: E23 final fingerprint: %w", err)
	}
	identical := string(recoveredBytes) == string(cleanBytes)

	tornTotal, replayedTotal := 0, 0
	for _, rd := range rounds {
		tornTotal += rd.tornBytes
		replayedTotal += rd.replayed
	}
	matrixPoints, matrixViolations, err := e23CrashMatrix(s.Seed)
	if err != nil {
		return res, fmt.Errorf("sdnbugs: E23 crash matrix: %w", err)
	}
	faults := srv.chaosJira.Stats().Faults() + srv.chaosGH.Stats().Faults()

	res.Checks = append(res.Checks,
		report.Check{Artifact: "E23", Metric: "clean single-shot mine corpus size",
			Paper:    "186 ONOS + 358 CORD + 251 FAUCET = 795",
			Measured: fmt.Sprintf("%d issues", cleanTotal),
			Holds:    cleanTotal == 795},
		report.Check{Artifact: "E23", Metric: "scheduled disk crashes fired",
			Paper:    fmt.Sprintf("%d kill points", len(e23CrashPoints)),
			Measured: fmt.Sprintf("%d crashes fired", fired),
			Holds:    fired == len(e23CrashPoints)},
		report.Check{Artifact: "E23", Metric: "resumed corpus byte-identical to single-shot run",
			Paper:    "crashes must not change mined data",
			Measured: fmt.Sprintf("%d issues, identical=%v", recoveredTotal, identical),
			Holds:    identical && recoveredTotal == 795},
		report.Check{Artifact: "E23", Metric: "torn journal tails truncated, never fatal",
			Paper:    "recovery repairs what a torn write can explain",
			Measured: fmt.Sprintf("%d torn bytes truncated across %d reopenings", tornTotal, len(rounds)),
			Holds:    true}, // reaching this line means every recovery succeeded
		report.Check{Artifact: "E23", Metric: "concurrent opener rejected with ErrLocked",
			Paper:    "single-owner state directory",
			Measured: fmt.Sprintf("second open: %v", lockedErr),
			Holds:    errors.Is(lockedErr, durable.ErrLocked)},
		report.Check{Artifact: "E23", Metric: "crash matrix: prefix-consistent recovery at every write op",
			Paper:    "all acked records, at most one unacked, no duplicates",
			Measured: fmt.Sprintf("%d crash points, %d violations", matrixPoints, matrixViolations),
			Holds:    matrixPoints > 0 && matrixViolations == 0},
		report.Check{Artifact: "E23", Metric: "tracker chaos active during the campaign",
			Paper:    "fault rate 0.5 (as E21)",
			Measured: fmt.Sprintf("faults injected: %v", faults > 0),
			Holds:    faults > 0},
	)

	tbl := &report.Table{Title: "Kill-and-resume mining (E23)",
		Headers: []string{"round", "crash at op", "restored", "replayed", "torn bytes", "snap gen", "fetched"}}
	for i, rd := range rounds {
		at := fmt.Sprintf("%d", rd.crashOp)
		if rd.crashOp == 0 {
			at = "-"
		}
		_ = tbl.AddRow(fmt.Sprintf("%d", i+1), at,
			fmt.Sprintf("%d", rd.restored), fmt.Sprintf("%d", rd.replayed),
			fmt.Sprintf("%d", rd.tornBytes), fmt.Sprintf("%d", rd.snapGen),
			fmt.Sprintf("%d", rd.fetched))
	}
	res.Tables = append(res.Tables, tbl)

	sum := &report.Table{Title: "Crash recovery summary (E23)",
		Headers: []string{"metric", "value"}}
	_ = sum.AddRow("issues mined", fmt.Sprintf("%d", final.restored+final.fetched))
	_ = sum.AddRow("scheduled crashes", fmt.Sprintf("%d", fired))
	_ = sum.AddRow("journal records replayed", fmt.Sprintf("%d", replayedTotal))
	_ = sum.AddRow("torn bytes truncated", fmt.Sprintf("%d", tornTotal))
	_ = sum.AddRow("byte-identical to clean run", fmt.Sprintf("%v", identical))
	_ = sum.AddRow("matrix crash points / violations", fmt.Sprintf("%d / %d", matrixPoints, matrixViolations))
	res.Tables = append(res.Tables, sum)
	return res, nil
}

// e23Client builds a fresh resilient client per round (the E21
// configuration): retry with backoff and jitter, a per-round retry
// budget, and a circuit breaker sized above the chaos progress bound.
func e23Client() *http.Client {
	budget := resilience.NewBudget(200, 1)
	breaker := resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: 10,
		SuccessThreshold: 2,
		OpenTimeout:      50 * time.Millisecond,
	})
	return &http.Client{Transport: resilience.NewTransport(nil, resilience.Policy{
		MaxAttempts:   8,
		BaseDelay:     time.Millisecond,
		MaxDelay:      8 * time.Millisecond,
		MaxRetryAfter: 50 * time.Millisecond,
		Budget:        budget,
	}, breaker)}
}

const e23StateDir = "e23-state"

// e23CleanMine runs one uninterrupted durable mine on a fresh in-memory
// disk and returns the corpus fingerprint.
func e23CleanMine(ctx context.Context, jiraURL, ghURL string) ([]byte, int, error) {
	mem := diskfault.NewMemFS()
	d, err := durable.Open(e23StateDir, durable.Options{FS: mem, SnapshotEvery: 96})
	if err != nil {
		return nil, 0, err
	}
	st, err := tracker.NewDurableStore(d)
	if err != nil {
		_ = d.Close()
		return nil, 0, err
	}
	defer func() { _ = st.Close() }()
	plain := &http.Client{}
	r, err := mine.Run(ctx, mine.Config{
		JIRA:       &trackerd.Client{BaseURL: jiraURL, HTTPClient: plain, PageSize: 50},
		GitHub:     &trackerd.Client{BaseURL: ghURL, HTTPClient: plain, PageSize: 50},
		GitHubList: faucetRepo,
		Store:      st,
	})
	if err != nil {
		return nil, 0, err
	}
	return st.CorpusBytes(), r.Total, nil
}

// e23Round1 runs one campaign round on fsys: open (taking over the
// crashed predecessor's lock), record recovery stats, mine until done
// or until the disk dies. On the final round it also probes that a
// second opener is rejected while the store is live. Only a disk crash
// is a tolerated mining failure; anything else is an error.
func e23Round1(ctx context.Context, fsys diskfault.FS, jiraURL, ghURL string, takeOver, probeLock bool) (e23Round, error, error) {
	var rd e23Round
	d, err := durable.Open(e23StateDir, durable.Options{FS: fsys, SnapshotEvery: 96, TakeOver: takeOver})
	if err != nil {
		if errors.Is(err, diskfault.ErrCrashed) {
			rd.crashed = true // died before the store was up; next round recovers
			return rd, nil, nil
		}
		return rd, nil, err
	}
	rec := d.Recovery()
	rd.replayed, rd.tornBytes, rd.snapGen = rec.ReplayedRecords, rec.TruncatedBytes, rec.SnapshotGen
	st, err := tracker.NewDurableStore(d)
	if err != nil {
		_ = d.Close()
		return rd, nil, err
	}
	rd.restored = st.Len()

	var lockErr error
	if probeLock {
		_, lockErr = durable.Open(e23StateDir, durable.Options{FS: fsys})
		if lockErr == nil {
			lockErr = errors.New("second open of a live state dir unexpectedly succeeded")
		}
	}

	hardened := e23Client()
	r, runErr := mine.Run(ctx, mine.Config{
		JIRA:       &trackerd.Client{BaseURL: jiraURL, HTTPClient: hardened, PageSize: 50},
		GitHub:     &trackerd.Client{BaseURL: ghURL, HTTPClient: hardened, PageSize: 50},
		GitHubList: faucetRepo,
		Store:      st,
	})
	rd.fetched = r.JIRAFetched + r.GitHubFetched
	_ = st.Close()
	if runErr != nil {
		if !errors.Is(runErr, diskfault.ErrCrashed) {
			return rd, lockErr, runErr
		}
		rd.crashed = true
	}
	return rd, lockErr, nil
}

// e23Fingerprint reopens the campaign's disk one last time and returns
// the recovered corpus fingerprint.
func e23Fingerprint(mem *diskfault.MemFS) ([]byte, int, error) {
	d, err := durable.Open(e23StateDir, durable.Options{FS: mem, TakeOver: true})
	if err != nil {
		return nil, 0, err
	}
	st, err := tracker.NewDurableStore(d)
	if err != nil {
		_ = d.Close()
		return nil, 0, err
	}
	defer func() { _ = st.Close() }()
	return st.CorpusBytes(), st.Len(), nil
}

// e23CrashMatrix reboots a small synthetic workload at every write-class
// operation it performs and verifies prefix-consistent recovery: every
// acknowledged record present, at most one unacknowledged record, in
// exact Put order with exact values. Returns crash points tried and
// violations found.
func e23CrashMatrix(seed int64) (points, violations int, err error) {
	const nRecs = 12
	key := func(i int) string { return fmt.Sprintf("m/%02d", i) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("matrix-record-%02d", i)) }

	// Measure a clean run's op count.
	probe := diskfault.New(diskfault.NewMemFS(), diskfault.Config{})
	d, err := durable.Open("m", durable.Options{FS: probe, SnapshotEvery: 4})
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < nRecs; i++ {
		if err := d.Put(key(i), val(i)); err != nil {
			return 0, 0, err
		}
	}
	if err := d.Close(); err != nil {
		return 0, 0, err
	}
	totalOps := probe.Stats().Ops

	for k := 1; k <= totalOps; k++ {
		points++
		mem := diskfault.NewMemFS()
		ffs := diskfault.New(mem, diskfault.Config{Seed: seed + int64(k), CrashAfterOps: k})
		acked := 0
		d, err := durable.Open("m", durable.Options{FS: ffs, SnapshotEvery: 4})
		if err == nil {
			for i := 0; i < nRecs; i++ {
				if err := d.Put(key(i), val(i)); err != nil {
					break
				}
				acked++
			}
			_ = d.Close()
		} else if !errors.Is(err, diskfault.ErrCrashed) {
			return points, violations, err
		}

		r, err := durable.Open("m", durable.Options{FS: mem, TakeOver: true})
		if err != nil {
			violations++
			continue
		}
		got := r.Len()
		ok := got >= acked && got <= acked+1
		idx := 0
		r.Range(func(k string, v []byte) bool {
			if k != key(idx) || string(v) != string(val(idx)) {
				ok = false
				return false
			}
			idx++
			return true
		})
		if !ok || idx != got {
			violations++
		}
		_ = r.Close()
	}
	return points, violations, nil
}
