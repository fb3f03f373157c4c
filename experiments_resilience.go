package sdnbugs

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"time"

	"sdnbugs/internal/chaos"
	"sdnbugs/internal/corpus"
	"sdnbugs/internal/engine"
	"sdnbugs/internal/report"
	"sdnbugs/internal/resilience"
	"sdnbugs/internal/tracker"
	"sdnbugs/internal/trackerd"
)

// registerResilienceExperiments registers the robustness experiment
// (E21) after the paper experiments.
func (s *Suite) registerResilienceExperiments(r *engine.Registry[ExperimentResult]) {
	registerSuite(r, "E21", "robust mining: byte-identical corpus under injected tracker faults",
		engine.KindExperiment, s.E21ResilientMining)
}

// faucetRepo is the FAUCET issue listing every mining experiment pages
// through; the GitHub simulators serve it under faucetsdn/faucet.
var faucetRepo = trackerd.GitHubList{Repo: "faucetsdn/faucet"}

// trackerServers serves the corpus's JIRA and GitHub stores twice over
// loopback: a clean pair, and a flaky pair behind chaos middleware.
// One handler per store backs both pairs, so each corpus is encoded
// into one replica.
type trackerServers struct {
	cleanJira, cleanGH *httptest.Server
	flakyJira, flakyGH *httptest.Server
	chaosJira, chaosGH *chaos.Handler
}

// startTrackerServers splits the corpus the way the real trackers hold
// it (tracker.SplitStores) and starts both pairs; ccfg configures the
// chaos middleware. Close stops all four servers.
func startTrackerServers(corp *corpus.Corpus, ccfg chaos.Config) (*trackerServers, error) {
	jiraStore, ghStore, err := tracker.SplitStores(corp.Issues)
	if err != nil {
		return nil, fmt.Errorf("sdnbugs: load stores: %w", err)
	}
	jiraH := trackerd.NewJIRAHandler(jiraStore)
	ghH := trackerd.NewGitHubHandler(ghStore, "faucetsdn", "faucet")
	t := &trackerServers{chaosJira: chaos.Wrap(jiraH, ccfg), chaosGH: chaos.Wrap(ghH, ccfg)}
	t.cleanJira = httptest.NewServer(jiraH)
	t.cleanGH = httptest.NewServer(ghH)
	t.flakyJira = httptest.NewServer(t.chaosJira)
	t.flakyGH = httptest.NewServer(t.chaosGH)
	return t, nil
}

// Close stops the four servers.
func (t *trackerServers) Close() {
	t.cleanJira.Close()
	t.cleanGH.Close()
	t.flakyJira.Close()
	t.flakyGH.Close()
}

// E21ResilientMining is the robustness experiment: the §II-B mining
// pipeline runs against chaos-wrapped simulators — injected rate
// limits with Retry-After, 5xx bursts, latency spikes, truncated
// bodies, and dropped connections — through the resilience transport
// (retry with backoff + jitter, retry budget, circuit breaker). The
// mined corpus must be byte-identical to a fault-free run: the faults
// may change the schedule, never the data.
func (s *Suite) E21ResilientMining() (ExperimentResult, error) {
	res := ExperimentResult{ID: "E21",
		Title: "robust mining: byte-identical corpus under injected tracker faults"}
	corp, err := s.Corpus()
	if err != nil {
		return res, err
	}
	// The chaos pair faults roughly every other request, but the chaos
	// progress bound (≤3 consecutive error faults) plus 8 attempts per
	// request guarantees completion.
	srv, err := startTrackerServers(corp, chaos.Config{
		Seed:       s.Seed + 21,
		Rate:       0.5,
		RetryAfter: time.Millisecond, // advertises "0": no forced sleeps
		Latency:    2 * time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	defer srv.Close()
	ctx := context.Background()

	// Fault-free baseline through plain clients (no retry layer).
	plain := &http.Client{}
	baseJira, err := (&trackerd.Client{BaseURL: srv.cleanJira.URL, HTTPClient: plain,
		PageSize: 50}).FetchAll(ctx, trackerd.JIRASearch{})
	if err != nil {
		return res, fmt.Errorf("sdnbugs: baseline JIRA mining: %w", err)
	}
	baseGH, err := (&trackerd.Client{BaseURL: srv.cleanGH.URL,
		HTTPClient: plain, PageSize: 50}).FetchAll(ctx, faucetRepo)
	if err != nil {
		return res, fmt.Errorf("sdnbugs: baseline GitHub mining: %w", err)
	}

	// The same mining run through chaos.
	budget := resilience.NewBudget(200, 1)
	breaker := resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: 10, // above the chaos progress bound: must never trip
		SuccessThreshold: 2,
		OpenTimeout:      50 * time.Millisecond,
	})
	rt := resilience.NewTransport(nil, resilience.Policy{
		MaxAttempts:   8,
		BaseDelay:     time.Millisecond,
		MaxDelay:      8 * time.Millisecond,
		MaxRetryAfter: 50 * time.Millisecond,
		Budget:        budget,
	}, breaker)
	hardened := &http.Client{Transport: rt}
	chaosJira, err := (&trackerd.Client{BaseURL: srv.flakyJira.URL, HTTPClient: hardened,
		PageSize: 50}).FetchAll(ctx, trackerd.JIRASearch{})
	if err != nil {
		return res, fmt.Errorf("sdnbugs: chaos JIRA mining: %w", err)
	}
	chaosGH, err := (&trackerd.Client{BaseURL: srv.flakyGH.URL,
		HTTPClient: hardened, PageSize: 50}).FetchAll(ctx, faucetRepo)
	if err != nil {
		return res, fmt.Errorf("sdnbugs: chaos GitHub mining: %w", err)
	}

	jiraStats, ghStats := srv.chaosJira.Stats(), srv.chaosGH.Stats()
	faults := jiraStats.Faults() + ghStats.Faults()
	m := rt.Metrics()
	opens, rejections := breaker.Counts()
	_, retries, denied := budget.Stats()

	jiraSame := reflect.DeepEqual(chaosJira, baseJira)
	ghSame := reflect.DeepEqual(chaosGH, baseGH)
	res.Checks = append(res.Checks,
		report.Check{Artifact: "E21", Metric: "JIRA corpus identical under chaos",
			Paper:    "faults must not change mined data",
			Measured: fmt.Sprintf("%d issues, identical=%v", len(chaosJira), jiraSame),
			Holds:    jiraSame && len(chaosJira) == 186+358},
		report.Check{Artifact: "E21", Metric: "GitHub corpus identical under chaos",
			Paper:    "faults must not change mined data",
			Measured: fmt.Sprintf("%d issues, identical=%v", len(chaosGH), ghSame),
			Holds:    ghSame && len(chaosGH) == 251},
		report.Check{Artifact: "E21", Metric: "chaos actually injected faults",
			Paper:    "fault rate 0.5",
			Measured: fmt.Sprintf("%d error faults injected", faults),
			Holds:    faults > 0},
		report.Check{Artifact: "E21", Metric: "transport retried through the faults",
			Paper:    "retries absorb every fault",
			Measured: fmt.Sprintf("retries observed: %v", m.Retries+m.BodyRetries > 0),
			Holds:    m.Retries+m.BodyRetries > 0},
		report.Check{Artifact: "E21", Metric: "circuit breaker stayed closed",
			Paper:    "bounded fault bursts never trip it",
			Measured: fmt.Sprintf("%d opens, %d rejections", opens, rejections),
			Holds:    opens == 0 && rejections == 0},
		report.Check{Artifact: "E21", Metric: "retry budget never exhausted",
			Paper:    "budget sized for the fault rate",
			Measured: fmt.Sprintf("%d retries granted, %d denied", retries, denied),
			Holds:    denied == 0},
	)

	tbl := &report.Table{Title: "Mining under chaos (E21)",
		Headers: []string{"metric", "JIRA", "GitHub"}}
	_ = tbl.AddRow("requests seen", fmt.Sprintf("%d", jiraStats.Requests), fmt.Sprintf("%d", ghStats.Requests))
	_ = tbl.AddRow("faults injected", fmt.Sprintf("%d", jiraStats.Faults()), fmt.Sprintf("%d", ghStats.Faults()))
	_ = tbl.AddRow("rate limits", fmt.Sprintf("%d", jiraStats.RateLimits), fmt.Sprintf("%d", ghStats.RateLimits))
	_ = tbl.AddRow("server errors", fmt.Sprintf("%d", jiraStats.ServerErrors), fmt.Sprintf("%d", ghStats.ServerErrors))
	_ = tbl.AddRow("latency spikes", fmt.Sprintf("%d", jiraStats.Latencies), fmt.Sprintf("%d", ghStats.Latencies))
	_ = tbl.AddRow("truncated bodies", fmt.Sprintf("%d", jiraStats.Truncations), fmt.Sprintf("%d", ghStats.Truncations))
	_ = tbl.AddRow("dropped connections", fmt.Sprintf("%d", jiraStats.Drops), fmt.Sprintf("%d", ghStats.Drops))
	res.Tables = append(res.Tables, tbl)
	return res, nil
}
