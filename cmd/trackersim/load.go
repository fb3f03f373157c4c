package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdnbugs/internal/diskfault"
	"sdnbugs/internal/durable"
	"sdnbugs/internal/metrics"
	"sdnbugs/internal/mine"
	"sdnbugs/internal/resilience"
	"sdnbugs/internal/tracker"
	"sdnbugs/internal/trackerd"
)

// benchReport is the BENCH_tracker.json document.
type benchReport struct {
	GeneratedAt     string                    `json:"generated_at"`
	GOMAXPROCS      int                       `json:"gomaxprocs"`
	Tenants         int                       `json:"tenants"`
	Shards          int                       `json:"shards"`
	Miners          int                       `json:"miners"`
	CorpusPerTenant []int                     `json:"corpus_per_tenant"`
	IssuesMined     int                       `json:"issues_mined"`
	WallSeconds     float64                   `json:"wall_seconds"`
	IssuesPerSec    float64                   `json:"issues_per_sec"`
	HTTPRequests    uint64                    `json:"http_requests"`
	Latency         metrics.HistogramSnapshot `json:"request_latency_ms"`
	Throttled429    uint64                    `json:"throttled_429"`
	Shed429         uint64                    `json:"shed_429"`
	ClientRetries   uint64                    `json:"client_retries"`
	MinerRecover    struct {
		Count  int     `json:"count"`
		MeanMS float64 `json:"mean_ms"`
		MaxMS  float64 `json:"max_ms"`
	} `json:"miner_takeover_recover"`
	ServerRecover struct {
		ReopenMS         float64 `json:"reopen_ms"`
		Shards           int     `json:"shards"`
		RecordsRecovered int     `json:"records_recovered"`
	} `json:"server_kill_recover"`
	GroupCommit struct {
		PerAppendFsyncPerSec float64 `json:"per_append_fsync_appends_per_sec"`
		GroupCommitPerSec    float64 `json:"group_commit_appends_per_sec"`
		Speedup              float64 `json:"speedup"`
		Records              uint64  `json:"records"`
		Syncs                uint64  `json:"syncs"`
		LargestBatch         uint64  `json:"largest_batch"`
	} `json:"group_commit"`
}

func runLoad(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trackersim load", flag.ExitOnError)
	tenants := fs.Int("tenants", 4, "tenant shard pairs to host (>= 1)")
	miners := fs.Int("miners", 100, "concurrent checkpoint/resume miners")
	seed := fs.Int64("seed", 1, "corpus seed (tenant i is seeded with seed+i)")
	rate := fs.Float64("rate", 0, "per-tenant sustained requests/sec; 0 = unlimited")
	burst := fs.Int("burst", 100, "per-tenant burst when -rate is set")
	maxInflight := fs.Int("max-inflight", 0, "per-tenant concurrent request cap; 0 = unlimited")
	groupWindow := fs.Duration("group-window", 0, "WAL flush linger window for the server shards")
	pageSize := fs.Int("page-size", 25, "miner page size")
	outPath := fs.String("out", "BENCH_tracker.json", "benchmark report path")
	benchAppends := fs.Int("bench-appends", 6000, "appends per mode for the group-commit throughput comparison")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tenants < 1 || *miners < 1 {
		return fmt.Errorf("load: need at least one tenant and one miner")
	}

	report := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Tenants:     *tenants,
		Shards:      2 * *tenants,
		Miners:      *miners,
	}

	// Boot the served tracker on a loopback listener, shards on a
	// process-lifetime MemFS (so the server "kill" below can abandon
	// them, locks held, and a TakeOver reopen can recover them).
	shardFS := diskfault.NewMemFS()
	reg := metrics.NewRegistry()
	svc, err := trackerd.New(trackerd.Config{
		Root:    "load",
		Durable: durable.Options{FS: shardFS, GroupCommit: true, GroupWindow: *groupWindow},
		Metrics: reg,
		Tenants: tenantLayout(*tenants, *rate, *burst, *maxInflight),
	})
	if err != nil {
		return err
	}
	perTenant, err := seedService(svc, *tenants, *seed)
	if err != nil {
		return err
	}
	report.CorpusPerTenant = perTenant

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc}
	go func() { _ = srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// One connection pool for the whole fleet so 100+ miners do not
	// churn ephemeral ports.
	inner := &http.Transport{MaxIdleConns: 1024, MaxIdleConnsPerHost: 512}
	defer inner.CloseIdleConnections()

	results := make([]minerResult, *miners)
	start := time.Now()
	var wg sync.WaitGroup
	for m := 0; m < *miners; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			results[m] = runMiner(base, m%*tenants, *pageSize, inner)
		}(m)
	}
	wg.Wait()
	wall := time.Since(start)

	var mined int
	var retries uint64
	var recoverSum, recoverMax float64
	tenantSums := make(map[int][sha256.Size]byte)
	for m, r := range results {
		if r.err != nil {
			return fmt.Errorf("miner %d (tenant t%d): %w", m, r.tenant, r.err)
		}
		if r.mined != perTenant[r.tenant] {
			return fmt.Errorf("miner %d mined %d issues, tenant t%d serves %d", m, r.mined, r.tenant, perTenant[r.tenant])
		}
		if want, seen := tenantSums[r.tenant]; seen && want != r.sum {
			return fmt.Errorf("miner %d: corpus fingerprint diverged from tenant t%d's other miners", m, r.tenant)
		}
		tenantSums[r.tenant] = r.sum
		mined += r.mined
		retries += r.retries
		recoverSum += r.recoverMS
		if r.recoverMS > recoverMax {
			recoverMax = r.recoverMS
		}
	}
	report.IssuesMined = mined
	report.WallSeconds = wall.Seconds()
	report.IssuesPerSec = float64(mined) / wall.Seconds()
	report.ClientRetries = retries
	report.MinerRecover.Count = *miners
	report.MinerRecover.MeanMS = recoverSum / float64(*miners)
	report.MinerRecover.MaxMS = recoverMax

	snap := reg.Snapshot()
	report.HTTPRequests = snap.Counters["http.requests"]
	report.Latency = snap.Histograms["http.request_ms"]
	for i := 0; i < *tenants; i++ {
		report.Throttled429 += snap.Counters[fmt.Sprintf("tenant.t%d.throttled_429", i)]
		report.Shed429 += snap.Counters[fmt.Sprintf("tenant.t%d.shed_429", i)]
	}

	// Kill the server without closing its shards (locks stay held, the
	// journals keep whatever the group committer last fsynced) and
	// measure a cold TakeOver reopen of every shard.
	_ = srv.Close()
	wantRecords := 0
	for _, shard := range svc.Shards() {
		wantRecords += shard.DS.Len()
	}
	reopenStart := time.Now()
	svc2, err := trackerd.New(trackerd.Config{
		Root:    "load",
		Durable: durable.Options{FS: shardFS, GroupCommit: true, TakeOver: true},
		Tenants: tenantLayout(*tenants, 0, 0, 0),
	})
	if err != nil {
		return fmt.Errorf("server take-over reopen: %w", err)
	}
	report.ServerRecover.ReopenMS = float64(time.Since(reopenStart)) / float64(time.Millisecond)
	report.ServerRecover.Shards = len(svc2.Shards())
	for _, shard := range svc2.Shards() {
		report.ServerRecover.RecordsRecovered += shard.DS.Len()
	}
	if report.ServerRecover.RecordsRecovered != wantRecords {
		return fmt.Errorf("server recovery lost records: %d recovered, %d before the kill",
			report.ServerRecover.RecordsRecovered, wantRecords)
	}
	var serverStats durable.CommitStats
	for _, shard := range svc.Shards() {
		cs := shard.DS.Durable().CommitStats()
		serverStats.Records += cs.Records
		serverStats.Syncs += cs.Syncs
		if cs.LargestBatch > serverStats.LargestBatch {
			serverStats.LargestBatch = cs.LargestBatch
		}
	}
	if err := svc2.Close(); err != nil {
		return err
	}

	// Group commit vs per-append fsync, measured on the real disk where
	// fsync costs what it costs.
	single, err := measureAppendRate(false, 0, *benchAppends)
	if err != nil {
		return err
	}
	grouped, err := measureAppendRate(true, *groupWindow, *benchAppends)
	if err != nil {
		return err
	}
	report.GroupCommit.PerAppendFsyncPerSec = single
	report.GroupCommit.GroupCommitPerSec = grouped
	report.GroupCommit.Speedup = grouped / single
	report.GroupCommit.Records = serverStats.Records
	report.GroupCommit.Syncs = serverStats.Syncs
	report.GroupCommit.LargestBatch = serverStats.LargestBatch

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "trackersim load: %d miners x %d tenants mined %d issues in %.1fs (%.0f issues/s, p99 %.2fms); "+
		"miner takeover mean %.2fms; server reopen %.1fms; group commit %.1fx\n",
		*miners, *tenants, mined, wall.Seconds(), report.IssuesPerSec, report.Latency.P99MS,
		report.MinerRecover.MeanMS, report.ServerRecover.ReopenMS, report.GroupCommit.Speedup)
	fmt.Fprintf(out, "trackersim load: report written to %s\n", *outPath)
	return nil
}

// minerResult is one miner's outcome.
type minerResult struct {
	tenant    int
	mined     int
	retries   uint64
	recoverMS float64
	sum       [sha256.Size]byte
	err       error
}

// runMiner is one checkpoint/resume miner: mine a couple of pages,
// crash (the store is abandoned with its lock held), take the state
// over like a restarted process would, and resume to completion. The
// miner's durable state lives on its own MemFS so the crash leaves the
// LOCK file in place.
func runMiner(base string, tenant, pageSize int, inner http.RoundTripper) (res minerResult) {
	res.tenant = tenant
	ctx := context.Background()
	stateFS := diskfault.NewMemFS()
	rt := resilience.NewTransport(inner, resilience.Policy{
		MaxAttempts:       10,
		BaseDelay:         2 * time.Millisecond,
		MaxDelay:          100 * time.Millisecond,
		MaxRetryAfter:     100 * time.Millisecond,
		PerAttemptTimeout: 30 * time.Second,
	}, nil)
	hc := &http.Client{Transport: rt}
	prefix := fmt.Sprintf("%s/t/t%d", base, tenant)
	cfg := mine.Config{
		JIRA:       &trackerd.Client{BaseURL: prefix + "/bugs", HTTPClient: hc, PageSize: pageSize},
		GitHub:     &trackerd.Client{BaseURL: prefix + "/faucet", HTTPClient: hc, PageSize: pageSize},
		GitHubList: trackerd.GitHubList{Repo: "faucetsdn/faucet"},
	}

	// Leg 1: a page-capped run that checkpoints a couple of pages and
	// then dies mid-mine, holding the state lock.
	d, err := durable.Open("miner", durable.Options{FS: stateFS})
	if err != nil {
		res.err = err
		return res
	}
	ds, err := tracker.NewDurableStore(d)
	if err != nil {
		res.err = err
		return res
	}
	leg1 := cfg
	capped := *cfg.JIRA
	capped.MaxPages = 2
	leg1.JIRA = &capped
	leg1.Store = ds
	for attempt := 0; ; attempt++ {
		if _, err := mine.Run(ctx, leg1); err == nil {
			res.err = fmt.Errorf("page-capped first leg finished the whole corpus; cannot exercise resume")
			return res
		}
		// Under aggressive throttling even the capped leg can fail before
		// checkpointing a page; keep going until the crash has real state
		// to lose.
		if ds.Len() > 0 {
			break
		}
		if attempt >= 50 {
			res.err = fmt.Errorf("first leg never checkpointed a page")
			return res
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The crash: never Close. Take the state over and resume.
	recoverStart := time.Now()
	d2, err := durable.Open("miner", durable.Options{FS: stateFS, TakeOver: true})
	if err != nil {
		res.err = fmt.Errorf("take over miner state: %w", err)
		return res
	}
	ds2, err := tracker.NewDurableStore(d2)
	if err != nil {
		res.err = err
		return res
	}
	res.recoverMS = float64(time.Since(recoverStart)) / float64(time.Millisecond)
	if ds2.Len() == 0 {
		res.err = fmt.Errorf("no checkpointed issues survived the crash")
		return res
	}
	defer func() { _ = ds2.Close() }()

	cfg.Store = ds2
	for attempt := 0; ; attempt++ {
		if _, err := mine.Run(ctx, cfg); err == nil {
			break
		} else if attempt >= 50 {
			res.err = fmt.Errorf("mining never converged: %w", err)
			return res
		}
		time.Sleep(10 * time.Millisecond)
	}
	res.mined = ds2.Len()
	res.sum = sha256.Sum256(ds2.CorpusBytes())
	m := rt.Metrics()
	res.retries = m.Retries + m.BodyRetries
	return res
}

// measureAppendRate times concurrent durable appends on the real
// filesystem in the given commit mode and reports appends/second.
func measureAppendRate(group bool, window time.Duration, total int) (float64, error) {
	dir, err := os.MkdirTemp("", "trackersim-bench-")
	if err != nil {
		return 0, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	s, err := durable.Open(dir+"/state", durable.Options{GroupCommit: group, GroupWindow: window})
	if err != nil {
		return 0, err
	}
	defer func() { _ = s.Close() }()
	const writers = 16
	val := []byte(`{"id":"BENCH","severity":"major","status":"closed"}`)
	var seq atomic.Uint64
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := seq.Add(1)
				if n > uint64(total) {
					return
				}
				if err := s.Put(fmt.Sprintf("k/%016d", n), val); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(total) / time.Since(start).Seconds(), nil
}
