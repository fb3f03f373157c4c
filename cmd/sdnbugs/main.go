// Command sdnbugs is the study's main CLI: it generates the bug
// corpus, runs the paper's experiments through the concurrent engine,
// and classifies bug-report text with the NLP pipeline.
//
// Usage:
//
//	sdnbugs generate    [-seed N] [-out corpus.json]
//	sdnbugs report      [-seed N] [-experiments E02,E05] [-csv] [-parallel N] [-workers N] [-timings]
//	sdnbugs checks      [-seed N] [-experiments E02,E05] [-ablations] [-parallel N] [-workers N] [-timings]
//	sdnbugs experiments [-seed N] [-out FILE] [-ablations] [-parallel N] [-workers N] [-timings]
//	sdnbugs classify    [-seed N] -text "controller crashes after config reload"
//	sdnbugs mine        -state-dir DIR [-resume] [-jira-url URL] [-gh-url URL] [-out FILE]
//
// report prints the regenerated tables, checks prints the
// paper-vs-measured summary, and experiments emits the EXPERIMENTS.md
// body. All three select experiments (and ablations) by ID through
// the engine registry — E01–E20 reproduce the paper's artifacts,
// E21 re-mines the corpus through fault-injected simulators behind
// the resilience transport, E22 runs the self-healing supervisor
// through a sustained fault-injection campaign, E23 kills and
// resumes the durable miner at scheduled disk-crash points, E24
// fuzzes event schedules for the stateful performance bugs, E25
// closes the loop by synthesizing, validating, and lifting automatic
// repairs for shed poison classes, and E26 replicates the controller
// into a fenced ensemble whose failovers are byte-invisible — run them
// on a -parallel worker pool
// (0 means GOMAXPROCS) with identical output to a sequential run,
// keep going past individual experiment failures (including panics,
// which surface as errored outcomes), and report where the time went,
// and how many inserts the NLP memo caches refused at their limits, on
// stderr with -timings. -workers bounds the pools *inside*
// experiments (the NLP validation grid, batch prediction) and, like
// -parallel, never changes output. -exp-timeout bounds each
// experiment's wall clock; one that overruns is reported errored with
// a deadline error while the rest of the batch completes. With no
// -experiments, checks and experiments run E01–E26, and -ablations
// adds A01–A07. -cpuprofile and -memprofile write
// runtime/pprof profiles of the suite run for `go tool pprof`.
//
// mine pages issues into a crash-consistent state directory (a
// checksummed write-ahead journal plus snapshots): kill it at any
// point and a -resume run continues from the last checkpointed page,
// producing a corpus byte-identical to an uninterrupted run. With no
// tracker URLs it serves the generated seed corpus from in-process
// simulators, making the kill-and-resume loop self-contained.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sdnbugs"
	"sdnbugs/internal/corpus"
	"sdnbugs/internal/durable"
	"sdnbugs/internal/engine"
	"sdnbugs/internal/mine"
	"sdnbugs/internal/nlp"
	"sdnbugs/internal/report"
	"sdnbugs/internal/tracker"
	"sdnbugs/internal/trackerd"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch args[0] {
	case "generate":
		err = cmdGenerate(args[1:])
	case "report":
		err = cmdReport(ctx, args[1:])
	case "classify":
		err = cmdClassify(args[1:])
	case "checks":
		err = cmdChecks(ctx, args[1:])
	case "experiments":
		err = cmdExperiments(ctx, args[1:])
	case "mine":
		err = cmdMine(ctx, args[1:])
	default:
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdnbugs:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sdnbugs <generate|report|classify|checks|experiments|mine> [flags]`)
}

// engineFlags holds the flags shared by every experiment-running
// subcommand.
type engineFlags struct {
	seed       *int64
	only       *string
	parallel   *int
	workers    *int
	expTimeout *time.Duration
	timings    *bool
	cpuprofile *string
	memprofile *string
}

func addEngineFlags(fs *flag.FlagSet) engineFlags {
	return engineFlags{
		seed:       fs.Int64("seed", 1, "suite seed"),
		only:       fs.String("experiments", "", "comma-separated experiment/ablation ids (default: all experiments)"),
		parallel:   fs.Int("parallel", 0, "experiment worker pool size (0 = GOMAXPROCS)"),
		workers:    fs.Int("workers", 0, "worker pool size inside experiments, e.g. the NLP validation grid (0 = GOMAXPROCS)"),
		expTimeout: fs.Duration("exp-timeout", 0, "per-experiment wall-clock bound; a wedged experiment is reported errored (0 = unbounded)"),
		timings:    fs.Bool("timings", false, "print per-experiment timings and the run summary to stderr"),
		cpuprofile: fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)"),
		memprofile: fs.String("memprofile", "", "write a heap profile taken after the run to this file"),
	}
}

// profile starts CPU profiling if requested and returns a stop
// function that finishes the CPU profile and writes the heap profile.
// Profiles wrap only the suite run, not flag parsing or rendering.
func (ef engineFlags) profile() (stop func() error, err error) {
	var cpuFile *os.File
	if *ef.cpuprofile != "" {
		cpuFile, err = os.Create(*ef.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			_ = cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if *ef.memprofile != "" {
			f, err := os.Create(*ef.memprofile)
			if err != nil {
				return err
			}
			defer func() { _ = f.Close() }()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// runSuite executes the selected experiments and, with -timings,
// accounts for the run on stderr. Timings go to stderr so stdout
// stays byte-identical across parallelism settings.
func (ef engineFlags) runSuite(ctx context.Context, ablations bool) (engine.Run[sdnbugs.ExperimentResult], error) {
	suite := sdnbugs.NewSuite(*ef.seed)
	suite.Workers = *ef.workers
	stopProfiles, err := ef.profile()
	if err != nil {
		return engine.Run[sdnbugs.ExperimentResult]{}, err
	}
	run, err := suite.Run(ctx, sdnbugs.RunOptions{
		IDs:               engine.ParseIDs(*ef.only),
		Ablations:         ablations,
		Parallelism:       *ef.parallel,
		ExperimentTimeout: *ef.expTimeout,
	})
	if perr := stopProfiles(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		return run, err
	}
	if *ef.timings {
		rep := engine.NewReport(run)
		fmt.Fprintln(os.Stderr, rep.Summary())
		_ = rep.TimingTable().Render(os.Stderr)
		_ = rep.SlowestTable(5).Render(os.Stderr)
		stem, pre := nlp.CacheRefusals()
		fmt.Fprintf(os.Stderr, "nlp memo caches: %d stem and %d preprocess inserts refused at their limits\n", stem, pre)
	}
	return run, nil
}

// cmdExperiments emits the EXPERIMENTS.md body: every experiment's
// paper-vs-measured checks and regenerated tables as markdown.
// Experiments that error are reported in place and in the header;
// the rest still render.
func cmdExperiments(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	ef := addEngineFlags(fs)
	out := fs.String("out", "", "output file (default stdout)")
	ablations := fs.Bool("ablations", false, "include the A01–A07 ablation studies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, err := ef.runSuite(ctx, *ablations)
	if err != nil {
		return err
	}
	total, failed, errored := 0, 0, 0
	var b strings.Builder
	for _, o := range run.Outcomes {
		fmt.Fprintf(&b, "## %s — %s\n\n", o.ID, o.Title)
		if o.Err != nil {
			errored++
			fmt.Fprintf(&b, "**ERROR:** %v\n\n", o.Err)
			continue
		}
		total += o.Passed + o.Failed
		failed += o.Failed
		b.WriteString("| metric | paper | measured | holds |\n|---|---|---|---|\n")
		for _, c := range o.Result.Checks {
			holds := "yes"
			if !c.Holds {
				holds = "**NO**"
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", c.Metric, c.Paper, c.Measured, holds)
		}
		b.WriteString("\n")
		for _, tbl := range o.Result.Tables {
			b.WriteString("```\n" + tbl.RenderString() + "```\n\n")
		}
	}
	header := fmt.Sprintf("Generated by `sdnbugs experiments -seed %d`: %d checks, %d failed.\n\n",
		*ef.seed, total, failed)
	if errored > 0 {
		header = fmt.Sprintf("Generated by `sdnbugs experiments -seed %d`: %d checks, %d failed; %d experiments errored.\n\n",
			*ef.seed, total, failed, errored)
	}
	// Publish atomically: a run killed mid-write must never leave a
	// truncated EXPERIMENTS.md behind.
	if *out != "" {
		if err := durable.WriteFileAtomic(*out, []byte(header+b.String()), 0o644); err != nil {
			return err
		}
	} else {
		if _, err := io.WriteString(os.Stdout, header+b.String()); err != nil {
			return err
		}
	}
	if errored > 0 {
		return fmt.Errorf("%d of %d experiments errored", errored, len(run.Outcomes))
	}
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "corpus seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	corp, err := corpus.Generate(*seed)
	if err != nil {
		return err
	}
	type wire struct {
		Issues    []tracker.Issue `json:"issues"`
		ManualIDs []string        `json:"manual_ids"`
	}
	data, err := json.MarshalIndent(wire{Issues: corp.Issues, ManualIDs: corp.ManualIDs}, "", "  ")
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(append(data, '\n'))
		return err
	}
	return durable.WriteFileAtomic(*out, data, 0o644)
}

// cmdMine runs the resumable miner: it pages issues out of JIRA- and
// GitHub-style trackers into a crash-consistent state directory,
// checkpointing after every page. Kill it anywhere — even mid-fsync —
// and a -resume run picks up from the last checkpoint; the finished
// corpus is byte-identical to an uninterrupted run (experiment E23
// asserts exactly this under scheduled disk crashes). With no tracker
// URLs the generated seed corpus is served from in-process simulators.
func cmdMine(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("mine", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "corpus seed for the in-process simulators")
	jiraURL := fs.String("jira-url", "", "JIRA tracker base URL (default: in-process simulator)")
	ghURL := fs.String("gh-url", "", "GitHub tracker base URL (default: in-process simulator)")
	ghRepo := fs.String("gh-repo", "faucetsdn/faucet", "GitHub repository path (owner/name)")
	stateDir := fs.String("state-dir", "", "crash-consistent mining state directory (required)")
	resume := fs.Bool("resume", false, "continue an interrupted run in -state-dir (breaks its stale lock)")
	snapEvery := fs.Int("snapshot-every", 64, "journal records between snapshots")
	out := fs.String("out", "", "write the mined corpus as JSON (atomically) when mining completes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stateDir == "" {
		return fmt.Errorf("mine: -state-dir is required")
	}
	if !*resume {
		if entries, err := os.ReadDir(*stateDir); err == nil && len(entries) > 0 {
			return fmt.Errorf("mine: %s already holds mining state; pass -resume to continue it", *stateDir)
		}
	}

	if *jiraURL == "" || *ghURL == "" {
		corp, err := corpus.Generate(*seed)
		if err != nil {
			return err
		}
		jiraStore, ghStore, err := tracker.SplitStores(corp.Issues)
		if err != nil {
			return err
		}
		owner, name, ok := strings.Cut(*ghRepo, "/")
		if !ok {
			return fmt.Errorf("mine: -gh-repo must be owner/name, got %q", *ghRepo)
		}
		if *jiraURL == "" {
			srv := httptest.NewServer(trackerd.NewJIRAHandler(jiraStore))
			defer srv.Close()
			*jiraURL = srv.URL
		}
		if *ghURL == "" {
			srv := httptest.NewServer(trackerd.NewGitHubHandler(ghStore, owner, name))
			defer srv.Close()
			*ghURL = srv.URL
		}
	}

	d, err := durable.Open(*stateDir, durable.Options{SnapshotEvery: *snapEvery, TakeOver: *resume})
	if err != nil {
		if errors.Is(err, durable.ErrLocked) {
			return fmt.Errorf("mine: another miner holds %s (or one crashed; pass -resume to take over): %w", *stateDir, err)
		}
		return err
	}
	st, err := tracker.NewDurableStore(d)
	if err != nil {
		_ = d.Close()
		return err
	}
	if rec := d.Recovery(); rec.SnapshotRecords+rec.ReplayedRecords > 0 || rec.TruncatedBytes > 0 {
		fmt.Fprintf(os.Stderr, "sdnbugs: recovered %d snapshot + %d journal records (%d torn bytes truncated)\n",
			rec.SnapshotRecords, rec.ReplayedRecords, rec.TruncatedBytes)
	}
	res, err := mine.Run(ctx, mine.Config{
		JIRA:       &trackerd.Client{BaseURL: *jiraURL},
		GitHub:     &trackerd.Client{BaseURL: *ghURL},
		GitHubList: trackerd.GitHubList{Repo: *ghRepo},
		Store:      st,
	})
	if err != nil {
		_ = st.Close()
		return err
	}
	fmt.Printf("mined %d issues (%d jira + %d github fetched, %d restored)\n",
		res.Total, res.JIRAFetched, res.GitHubFetched, res.Restored)
	if *out != "" {
		issues := st.IssuesInOrder()
		encoded := make([]json.RawMessage, len(issues))
		for i, iss := range issues {
			if encoded[i], err = tracker.EncodeIssue(iss); err != nil {
				_ = st.Close()
				return err
			}
		}
		data, err := json.MarshalIndent(struct {
			Issues []json.RawMessage `json:"issues"`
		}{encoded}, "", "  ")
		if err != nil {
			_ = st.Close()
			return err
		}
		if err := durable.WriteFileAtomic(*out, data, 0o644); err != nil {
			_ = st.Close()
			return err
		}
	}
	return st.Close()
}

func cmdReport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	ef := addEngineFlags(fs)
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, err := ef.runSuite(ctx, false)
	if err != nil {
		return err
	}
	errored := 0
	for _, o := range run.Outcomes {
		if o.Err != nil {
			errored++
			fmt.Fprintf(os.Stderr, "sdnbugs: %s: %v\n", o.ID, o.Err)
			continue
		}
		fmt.Printf("=== %s — %s\n", o.ID, o.Title)
		for _, tbl := range o.Result.Tables {
			if *csv {
				if err := tbl.CSV(os.Stdout); err != nil {
					return err
				}
			} else if err := tbl.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	if errored > 0 {
		return fmt.Errorf("%d of %d experiments errored", errored, len(run.Outcomes))
	}
	return nil
}

func cmdChecks(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("checks", flag.ContinueOnError)
	ef := addEngineFlags(fs)
	ablations := fs.Bool("ablations", false, "include the A01–A07 ablation studies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, err := ef.runSuite(ctx, *ablations)
	if err != nil {
		return err
	}
	var all []report.Check
	failedChecks := 0
	for _, o := range run.Outcomes {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "sdnbugs: %s: %v\n", o.ID, o.Err)
			continue
		}
		all = append(all, o.Result.Checks...)
		failedChecks += o.Failed
	}
	tbl := report.ChecksTable("Paper vs measured", all)
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	passed, failed, errored := run.Counts()
	fmt.Printf("\n%d checks, %d failed\n", len(all), failedChecks)
	fmt.Printf("%d experiments: %d passed, %d failed, %d errored\n",
		len(run.Outcomes), passed, failed, errored)
	if failed > 0 || errored > 0 {
		return fmt.Errorf("%d experiments failed checks, %d errored", failed, errored)
	}
	return nil
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "suite seed")
	text := fs.String("text", "", "bug report text to classify")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *text == "" {
		return fmt.Errorf("classify: -text is required")
	}
	suite := sdnbugs.NewSuite(*seed)
	p, err := suite.Pipeline()
	if err != nil {
		return err
	}
	label, err := p.Predict(tracker.Issue{Description: *text})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(label, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
