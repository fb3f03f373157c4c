// The benchmark harness: one benchmark per table and figure of the
// paper (E01–E26, see DESIGN.md's per-experiment index) plus ablation
// benches for the design choices DESIGN.md calls out. Each benchmark
// regenerates its artifact from scratch and reports the headline
// measured values via b.ReportMetric, failing if any paper-vs-measured
// check does not hold. Run with:
//
//	go test -bench=. -benchmem
package sdnbugs

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"sdnbugs/internal/engine"
)

// benchSuite is shared so corpora and NLP fits amortize across the
// per-experiment benches below. Experiments whose cost the suite's
// validation cache would hide after the first iteration (E09, E12 and
// the NLP ablations) use runExperimentCold instead, which rebuilds the
// suite outside the timed region every iteration.
var benchSuite = NewSuite(1)

// newWarmSuite returns a fresh suite with the corpus prebuilt: cold
// NLP caches, but iterations measure experiment work rather than
// corpus generation.
func newWarmSuite(b *testing.B, workers int) *Suite {
	b.Helper()
	s := NewSuite(1)
	s.Workers = workers
	if _, err := s.Corpus(); err != nil {
		b.Fatal(err)
	}
	return s
}

// benchState carries measured walls between the suite benchmarks (they
// run in declaration order) so BenchmarkSuite_Parallel can report a
// true speedup — parallel wall against the separately measured
// sequential baseline, not a run's own serial-sum over its own wall,
// which self-compares to ~1 once experiments parallelize internally —
// and so writeBenchJSON can persist the machine-readable record.
var benchState struct {
	mu             sync.Mutex
	sequentialWall time.Duration
	parallelWall   time.Duration
	experiments    []benchExperiment
	dataplane      []benchDataplane
}

type benchExperiment struct {
	ID     string  `json:"id"`
	WallMS float64 `json:"wall_ms"`
}

// benchDataplane is one row of the zero-alloc dataplane matrix
// (bench_dataplane_test.go): codec micro-benches record ns_per_op and
// allocs per message, the controller pipeline benches record
// packets_per_sec and allocs per packet (malloc delta over the timed
// loop).
type benchDataplane struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_per_op,omitempty"`
	PacketsPerSec float64 `json:"packets_per_sec,omitempty"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
}

type benchRecord struct {
	Timestamp        string  `json:"timestamp"`
	GoMaxProcs       int     `json:"gomaxprocs"`
	SequentialWallMS float64 `json:"sequential_wall_ms"`
	ParallelWallMS   float64 `json:"parallel_wall_ms"`
	Speedup          float64 `json:"speedup"`
	// BatchedSpeedup is the batched-over-serial controller pipeline
	// throughput ratio (packets/sec), when both pipeline benches ran.
	BatchedSpeedup float64           `json:"batched_packets_speedup,omitempty"`
	Experiments    []benchExperiment `json:"experiments"`
	Dataplane      []benchDataplane  `json:"dataplane,omitempty"`
}

// recordDataplane upserts one dataplane matrix row by name.
func recordDataplane(e benchDataplane) {
	benchState.mu.Lock()
	defer benchState.mu.Unlock()
	for i := range benchState.dataplane {
		if benchState.dataplane[i].Name == e.Name {
			benchState.dataplane[i] = e
			return
		}
	}
	benchState.dataplane = append(benchState.dataplane, e)
}

// dataplaneRate returns the recorded packets_per_sec for a named row
// (0 when that bench has not run in this invocation).
func dataplaneRate(name string) float64 {
	benchState.mu.Lock()
	defer benchState.mu.Unlock()
	for _, e := range benchState.dataplane {
		if e.Name == name {
			return e.PacketsPerSec
		}
	}
	return 0
}

// writeBenchJSON persists the suite benchmark record to the path in
// BENCH_JSON (no-op when unset); `make bench` points it at
// BENCH_suite.json so the perf trajectory is machine-readable.
func writeBenchJSON(b *testing.B) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		return
	}
	benchState.mu.Lock()
	defer benchState.mu.Unlock()
	rec := benchRecord{
		Timestamp:        time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		SequentialWallMS: float64(benchState.sequentialWall) / float64(time.Millisecond),
		ParallelWallMS:   float64(benchState.parallelWall) / float64(time.Millisecond),
		Experiments:      benchState.experiments,
		Dataplane:        benchState.dataplane,
	}
	if benchState.sequentialWall > 0 && benchState.parallelWall > 0 {
		rec.Speedup = float64(benchState.sequentialWall) / float64(benchState.parallelWall)
	}
	var serialPPS, batchedPPS float64
	for _, e := range benchState.dataplane {
		switch e.Name {
		case "controller_events_serial":
			serialPPS = e.PacketsPerSec
		case "controller_events_batched":
			batchedPPS = e.PacketsPerSec
		}
	}
	if serialPPS > 0 && batchedPPS > 0 {
		rec.BatchedSpeedup = batchedPPS / serialPPS
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// benchSuiteRun executes the whole E01–E26 slate through the engine on
// a fresh suite per iteration (cold validation caches; corpus prebuilt
// outside the timer) and returns the last run.
func benchSuiteRun(b *testing.B, parallelism, workers int) engine.Run[ExperimentResult] {
	b.Helper()
	ctx := context.Background()
	var last engine.Run[ExperimentResult]
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newWarmSuite(b, workers)
		b.StartTimer()
		run, err := s.Run(ctx, RunOptions{Parallelism: parallelism})
		if err != nil {
			b.Fatal(err)
		}
		ok, failed, errored := run.Counts()
		if failed+errored > 0 {
			b.Fatalf("suite run: %d ok, %d failed checks, %d errored: %v",
				ok, failed, errored, run.Err())
		}
		last = run
	}
	return last
}

// BenchmarkSuite_Sequential is the true-serial baseline: one engine
// worker and Workers=1 inside every experiment.
func BenchmarkSuite_Sequential(b *testing.B) {
	run := benchSuiteRun(b, 1, 1)
	benchState.mu.Lock()
	benchState.sequentialWall = run.Wall
	benchState.experiments = benchState.experiments[:0]
	for _, o := range run.Outcomes {
		benchState.experiments = append(benchState.experiments,
			benchExperiment{ID: o.ID, WallMS: float64(o.Duration) / float64(time.Millisecond)})
	}
	benchState.mu.Unlock()
	writeBenchJSON(b)
}

// BenchmarkSuite_Parallel runs the same slate with a GOMAXPROCS
// engine pool and GOMAXPROCS workers inside experiments. The reported
// "speedup" metric is the sequential baseline's wall over this run's
// wall (only when BenchmarkSuite_Sequential ran in the same
// invocation); it approaches the core count on multi-core hardware
// and ~1.0 when GOMAXPROCS is 1.
func BenchmarkSuite_Parallel(b *testing.B) {
	run := benchSuiteRun(b, 0, 0)
	benchState.mu.Lock()
	benchState.parallelWall = run.Wall
	seq := benchState.sequentialWall
	benchState.mu.Unlock()
	if seq > 0 && run.Wall > 0 {
		b.ReportMetric(float64(seq)/float64(run.Wall), "speedup")
	}
	writeBenchJSON(b)
}

// runExperiment runs one registered experiment per iteration on the
// shared suite and asserts its checks, then lets the bench report
// headline metrics.
func runExperiment(b *testing.B, id string, metrics func(*testing.B, ExperimentResult)) {
	b.Helper()
	var last ExperimentResult
	for i := 0; i < b.N; i++ {
		last = runChecked(b, benchSuite, id)
	}
	if metrics != nil {
		metrics(b, last)
	}
}

// runExperimentCold is runExperiment against a fresh suite every
// iteration, for experiments the suite-level validation cache would
// otherwise answer from memory after iteration one (the bench would
// measure a map lookup). Suite construction happens outside the timed
// region; workers bounds the in-experiment pools.
func runExperimentCold(b *testing.B, workers int, id string, metrics func(*testing.B, ExperimentResult)) {
	b.Helper()
	var last ExperimentResult
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newWarmSuite(b, workers)
		b.StartTimer()
		last = runChecked(b, s, id)
	}
	if metrics != nil {
		metrics(b, last)
	}
}

// runChecked runs experiment id on s through the registry and fails
// the bench if it errors or any of its checks does not hold.
func runChecked(b *testing.B, s *Suite, id string) ExperimentResult {
	b.Helper()
	run, err := s.Run(context.Background(), RunOptions{IDs: []string{id}})
	if err != nil {
		b.Fatal(err)
	}
	o := run.Outcomes[0]
	if o.Err != nil {
		b.Fatal(o.Err)
	}
	for _, c := range o.Result.Checks {
		if !c.Holds {
			b.Fatalf("%s check failed: %s — paper %q, measured %q",
				id, c.Metric, c.Paper, c.Measured)
		}
	}
	return o.Result
}

// pctMetric extracts the numeric value of a "xx.x%" string (-1 when
// the string is not a percentage).
func pctMetric(s string) float64 {
	if len(s) == 0 || s[len(s)-1] != '%' {
		return -1
	}
	v, err := strconv.ParseFloat(s[:len(s)-1], 64)
	if err != nil {
		return -1
	}
	return v
}

// findCheck returns the measured value of a check by metric name.
func findCheck(res ExperimentResult, metric string) string {
	for _, c := range res.Checks {
		if c.Metric == metric {
			return c.Measured
		}
	}
	return ""
}

func BenchmarkE01_CorpusMining(b *testing.B) {
	runExperiment(b, "E01", func(b *testing.B, res ExperimentResult) {
		b.ReportMetric(pctMetric(findCheck(res, "bugs created within 45d after a release")), "release_burst_%")
	})
}

func BenchmarkE02_Determinism(b *testing.B) {
	runExperiment(b, "E02", func(b *testing.B, res ExperimentResult) {
		b.ReportMetric(pctMetric(findCheck(res, "FAUCET deterministic")), "FAUCET_det_%")
		b.ReportMetric(pctMetric(findCheck(res, "ONOS deterministic")), "ONOS_det_%")
		b.ReportMetric(pctMetric(findCheck(res, "CORD deterministic")), "CORD_det_%")
	})
}

func BenchmarkE03_Symptoms(b *testing.B) {
	runExperiment(b, "E03", func(b *testing.B, res ExperimentResult) {
		b.ReportMetric(pctMetric(findCheck(res, "byzantine")), "byzantine_%")
		b.ReportMetric(pctMetric(findCheck(res, "fail-stop")), "failstop_%")
	})
}

func BenchmarkE04_RootCauseBySymptom(b *testing.B) {
	runExperiment(b, "E04", func(b *testing.B, res ExperimentResult) {
		b.ReportMetric(pctMetric(findCheck(res, "FAUCET fail-stop from human+ecosystem")), "faucet_failstop_humaneco_%")
	})
}

func BenchmarkE05_Triggers(b *testing.B) {
	runExperiment(b, "E05", func(b *testing.B, res ExperimentResult) {
		b.ReportMetric(pctMetric(findCheck(res, "configuration")), "config_trigger_%")
		b.ReportMetric(pctMetric(findCheck(res, "network-event")), "network_trigger_%")
	})
}

func BenchmarkE06_ConfigSubcategories(b *testing.B) {
	runExperiment(b, "E06", func(b *testing.B, res ExperimentResult) {
		b.ReportMetric(pctMetric(findCheck(res, "ONOS controller-config")), "onos_controller_scope_%")
	})
}

func BenchmarkE07_FixAnalysis(b *testing.B) {
	runExperiment(b, "E07", func(b *testing.B, res ExperimentResult) {
		b.ReportMetric(pctMetric(findCheck(res, "config bugs fixed by config change")), "config_fixed_by_config_%")
		b.ReportMetric(pctMetric(findCheck(res, "external-call compatibility/upgrade fixes")), "external_compat_fixes_%")
	})
}

func BenchmarkE08_ResolutionCDF(b *testing.B) {
	runExperiment(b, "E08", nil)
}

func BenchmarkE09_NLPValidation(b *testing.B) {
	runExperimentCold(b, 0, "E09", func(b *testing.B, res ExperimentResult) {
		b.ReportMetric(pctMetric(findCheck(res, "SVM bug-type accuracy")), "svm_type_acc_%")
		b.ReportMetric(pctMetric(findCheck(res, "SVM symptom accuracy")), "svm_symptom_acc_%")
		b.ReportMetric(pctMetric(findCheck(res, "fix prediction is poor")), "svm_fix_acc_%")
	})
}

// BenchmarkE09_NLPValidation_Serial pins Workers=1; the ratio against
// BenchmarkE09_NLPValidation is the experiment's internal parallel
// speedup on this machine.
func BenchmarkE09_NLPValidation_Serial(b *testing.B) {
	runExperimentCold(b, 1, "E09", nil)
}

func BenchmarkE10_CorrelationCDF(b *testing.B) {
	runExperiment(b, "E10", func(b *testing.B, res ExperimentResult) {
		b.ReportMetric(pctMetric(findCheck(res, "strongly correlated pair share")), "strong_pairs_%")
	})
}

func BenchmarkE11_TopicUniqueness(b *testing.B) {
	runExperiment(b, "E11", nil)
}

// BenchmarkE11_TopicUniqueness_Serial pins Workers=1 on a cold suite;
// the ratio against the cold parallel run below is the NMF sweep's
// internal parallel speedup.
func BenchmarkE11_TopicUniqueness_Serial(b *testing.B) {
	runExperimentCold(b, 1, "E11", nil)
}

func BenchmarkE12_FullDatasetPrediction(b *testing.B) {
	runExperimentCold(b, 0, "E12", func(b *testing.B, res ExperimentResult) {
		b.ReportMetric(pctMetric(findCheck(res, "configuration is the dominant predicted trigger")), "pred_config_%")
		b.ReportMetric(pctMetric(findCheck(res, "network events contribute a small part")), "pred_network_%")
	})
}

// BenchmarkE12_FullDatasetPrediction_Serial pins Workers=1; against
// BenchmarkE12_FullDatasetPrediction it measures the full-dataset
// fold pool's parallel speedup.
func BenchmarkE12_FullDatasetPrediction_Serial(b *testing.B) {
	runExperimentCold(b, 1, "E12", nil)
}

func BenchmarkE13_SmellTrend(b *testing.B) {
	runExperiment(b, "E13", nil)
}

func BenchmarkE14_CommitsPerRelease(b *testing.B) {
	runExperiment(b, "E14", nil)
}

func BenchmarkE15_FaucetBurn(b *testing.B) {
	runExperiment(b, "E15", func(b *testing.B, res ExperimentResult) {
		b.ReportMetric(pctMetric(findCheck(res, "configuration")), "config_commits_%")
	})
}

func BenchmarkE16_DependencyBurn(b *testing.B) {
	runExperiment(b, "E16", nil)
}

func BenchmarkE17_VulnerabilityScan(b *testing.B) {
	runExperiment(b, "E17", nil)
}

func BenchmarkE18_ControllerSelection(b *testing.B) {
	runExperiment(b, "E18", func(b *testing.B, res ExperimentResult) {
		b.ReportMetric(pctMetric(findCheck(res, "FAUCET missing-logic share")), "faucet_missing_logic_%")
	})
}

func BenchmarkE19_RecoveryCoverage(b *testing.B) {
	runExperiment(b, "E19", nil)
}

// BenchmarkE19_RecoveryCoverage_Serial pins Workers=1 on a cold suite
// so the recovery-matrix fan-out cost is measurable against the warm
// parallel bench above.
func BenchmarkE19_RecoveryCoverage_Serial(b *testing.B) {
	runExperimentCold(b, 1, "E19", nil)
}

func BenchmarkE20_CrossDomainComparison(b *testing.B) {
	runExperiment(b, "E20", func(b *testing.B, res ExperimentResult) {
		b.ReportMetric(pctMetric(findCheck(res, "SDN fail-stop share below cloud and BGP")), "sdn_failstop_%")
		b.ReportMetric(pctMetric(findCheck(res, "SDN byzantine share above cloud and BGP")), "sdn_byzantine_%")
	})
}

func BenchmarkE21_ResilientMining(b *testing.B) {
	// Wall time here is dominated by the retry schedule under a 50%
	// injected-fault rate — the price of mining through chaos.
	runExperiment(b, "E21", nil)
}

func BenchmarkE22_SelfHealingCampaign(b *testing.B) {
	// Four full campaigns per run (checkpointed twice for the
	// determinism check, cold, and the unsupervised baseline).
	runExperiment(b, "E22", nil)
}

func BenchmarkE23_KillAndResumeMining(b *testing.B) {
	// Two full durable mines (clean baseline + the kill-and-resume
	// campaign across five scheduled disk crashes) plus the per-op
	// crash matrix.
	runExperiment(b, "E23", nil)
}

func BenchmarkE24_PerformanceFuzzing(b *testing.B) {
	// Two full fuzzing runs (the second for the byte-identity check):
	// guided search, equal-budget random baseline, reproducer
	// shrinking, and classifier training.
	runExperiment(b, "E24", nil)
}

func BenchmarkE25_AutomaticRepair(b *testing.B) {
	// Two full repair runs (the second for the byte-identity check):
	// shed-mode campaign epoch, candidate synthesis + learner ranking,
	// reproducer + campaign validation per survivor, lifted epoch.
	runExperiment(b, "E25", nil)
}

func BenchmarkE26_ClusterFailover(b *testing.B) {
	// Two full HA campaigns (the second for the byte-identity check):
	// replicated ensemble under crashes/partitions, supervised
	// single-controller baseline, and the unfaulted truth run.
	runExperiment(b, "E26", nil)
}

func BenchmarkAblation_Features(b *testing.B) {
	runExperimentCold(b, 0, "A01", nil)
}

func BenchmarkAblation_Scaling(b *testing.B) {
	runExperimentCold(b, 0, "A02", nil)
}

func BenchmarkAblation_NMFRank(b *testing.B) {
	runExperiment(b, "A03", nil)
}

func BenchmarkAblation_TransformScope(b *testing.B) {
	runExperiment(b, "A04", nil)
}

func BenchmarkAblation_TopicModel(b *testing.B) {
	runExperiment(b, "A05", nil)
}

func BenchmarkAblation_Prediction(b *testing.B) {
	runExperiment(b, "A06", nil)
}

func BenchmarkAblation_Layering(b *testing.B) {
	runExperiment(b, "A07", nil)
}
