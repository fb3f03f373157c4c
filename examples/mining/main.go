// Mining: the §II-B data-collection pipeline end to end over real TCP —
// start the JIRA-like and GitHub-like simulators on loopback ports,
// mine every critical bug through their REST APIs with the typed
// clients, and summarize what came back.
//
//	go run ./examples/mining
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"sdnbugs/internal/corpus"
	"sdnbugs/internal/report"
	"sdnbugs/internal/tracker"
	"sdnbugs/internal/trackerd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mining:", err)
		os.Exit(1)
	}
}

// serve starts an HTTP server on a random loopback port and returns
// its base URL and a shutdown function.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func run() error {
	fmt.Println("Generating the critical-bug corpus and loading the trackers...")
	corp, err := corpus.Generate(1)
	if err != nil {
		return err
	}
	jiraStore, ghStore, err := tracker.SplitStores(corp.Issues)
	if err != nil {
		return err
	}
	jiraURL, stopJira, err := serve(trackerd.NewJIRAHandler(jiraStore))
	if err != nil {
		return err
	}
	defer stopJira()
	ghURL, stopGH, err := serve(trackerd.NewGitHubHandler(ghStore, "faucetsdn", "faucet"))
	if err != nil {
		return err
	}
	defer stopGH()
	fmt.Printf("JIRA simulator:   %s (%d issues)\n", jiraURL, jiraStore.Len())
	fmt.Printf("GitHub simulator: %s (%d issues)\n\n", ghURL, ghStore.Len())

	ctx := context.Background()
	tbl := &report.Table{Title: "Mined critical bugs (§II-B)",
		Headers: []string{"controller", "tracker", "mined", "closed", "with resolution time"}}

	jc := trackerd.Client{BaseURL: jiraURL, PageSize: 100}
	for _, project := range []string{"ONOS", "CORD"} {
		issues, err := jc.FetchAll(ctx, trackerd.JIRASearch{Project: project})
		if err != nil {
			return err
		}
		var closed, timed int
		for _, iss := range issues {
			if iss.Status == tracker.StatusClosed {
				closed++
			}
			if _, ok := iss.ResolutionTime(); ok {
				timed++
			}
		}
		_ = tbl.AddRow(project, "jira", fmt.Sprint(len(issues)), fmt.Sprint(closed), fmt.Sprint(timed))
	}

	gc := trackerd.Client{BaseURL: ghURL, PageSize: 100}
	issues, err := gc.FetchAll(ctx, trackerd.GitHubList{Repo: "faucetsdn/faucet"})
	if err != nil {
		return err
	}
	var closed, timed, critical int
	for _, iss := range issues {
		if iss.Status == tracker.StatusClosed {
			closed++
		}
		if _, ok := iss.ResolutionTime(); ok {
			timed++
		}
		if iss.Severity.Critical() {
			critical++
		}
	}
	_ = tbl.AddRow("FAUCET", "github", fmt.Sprint(len(issues)), fmt.Sprint(closed), fmt.Sprint(timed))
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}

	fmt.Printf("\nGitHub has no severity field: the keyword heuristic flagged %d/%d\n", critical, len(issues))
	fmt.Println("FAUCET issues as critical-band, and (as in the paper, §VIII) no")
	fmt.Println("resolution timestamps are available on the GitHub path.")
	return nil
}
