// Command trackersim serves the study's bug corpus behind the JIRA-like
// and GitHub-like REST APIs, so the mining pipeline (or curl) can be
// exercised against live endpoints. It has three modes:
//
// Legacy dual-port mode (no subcommand) — one in-memory JIRA simulator
// and one GitHub simulator:
//
//	trackersim -seed 1 -jira :8081 -github :8082
//	trackersim -seed 1 -chaos-rate 0.3 -chaos-seed 7
//
// Served-tracker mode — one multi-tenant trackerd service hosting
// N tenants × {JIRA, GitHub} projects, each on its own crash-consistent
// durable shard with WAL group commit, per-tenant rate limits, and a
// /metricz scrape endpoint:
//
//	trackersim serve -addr :8080 -tenants 2 -state ./tracker-state
//	curl 'http://localhost:8080/t/t0/bugs/rest/api/2/search?maxResults=2'
//	curl 'http://localhost:8080/metricz'
//
// Load-generator mode — boots a served tracker in-process, drives many
// concurrent checkpoint/resume miners against its tenant shards
// (killing and taking over every miner's durable state mid-run), then
// writes a benchmark report:
//
//	trackersim load -tenants 4 -miners 100 -out BENCH_tracker.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"sdnbugs/internal/chaos"
	"sdnbugs/internal/corpus"
	"sdnbugs/internal/tracker"
	"sdnbugs/internal/trackerd"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "serve":
		err = runServe(args[1:])
	case len(args) > 0 && args[0] == "load":
		err = runLoad(args[1:], os.Stdout)
	default:
		err = runLegacy(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trackersim:", err)
		os.Exit(1)
	}
}

func runLegacy(args []string) error {
	fs := flag.NewFlagSet("trackersim", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "corpus seed")
	jiraAddr := fs.String("jira", ":8081", "JIRA simulator listen address")
	ghAddr := fs.String("github", ":8082", "GitHub simulator listen address")
	chaosRate := fs.Float64("chaos-rate", 0, "per-request fault injection probability in [0,1]; 0 disables chaos")
	chaosSeed := fs.Int64("chaos-seed", 1, "fault injection schedule seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	corp, err := corpus.Generate(*seed)
	if err != nil {
		return err
	}
	jiraStore, ghStore, err := tracker.SplitStores(corp.Issues)
	if err != nil {
		return err
	}

	var jiraHandler http.Handler = trackerd.NewJIRAHandler(jiraStore)
	var ghHandler http.Handler = trackerd.NewGitHubHandler(ghStore, "faucetsdn", "faucet")
	if *chaosRate > 0 {
		ccfg := chaos.Config{Seed: *chaosSeed, Rate: *chaosRate}
		jiraHandler = chaos.Wrap(jiraHandler, ccfg)
		ghHandler = chaos.Wrap(ghHandler, ccfg)
	}
	jiraSrv := &http.Server{Addr: *jiraAddr, Handler: jiraHandler, ReadHeaderTimeout: 5 * time.Second}
	ghSrv := &http.Server{Addr: *ghAddr, Handler: ghHandler, ReadHeaderTimeout: 5 * time.Second}

	errc := make(chan error, 2)
	go func() { errc <- jiraSrv.ListenAndServe() }()
	go func() { errc <- ghSrv.ListenAndServe() }()
	mode := "no fault injection"
	if *chaosRate > 0 {
		mode = fmt.Sprintf("chaos rate %.2f seed %d", *chaosRate, *chaosSeed)
	}
	fmt.Printf("trackersim: JIRA (%d issues) on %s, GitHub (%d issues) on %s, %s\n",
		jiraStore.Len(), *jiraAddr, ghStore.Len(), *ghAddr, mode)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = jiraSrv.Shutdown(shutdownCtx)
	_ = ghSrv.Shutdown(shutdownCtx)
	return nil
}
