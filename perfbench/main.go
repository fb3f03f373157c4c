// Command perfbench is the repository's benchmark. It drives three
// workloads through the public package APIs — the paper reproduction
// (study), Cbench-style flow setup through the replicated controller
// stack (flowsetup), and the served multi-tenant tracker (tracker) —
// checks their outputs, and prints one JSON result line.
//
//	perfbench --workload study|flowsetup|tracker|all --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it runs the workload untraced and then traced, and holds
// the per-layer metrics, including the tracing overhead. See README.md
// for what each metric means and which layer should move which
// end-to-end figure.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them. See README.md for their per-workload meaning.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"saturation_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"peak_rss_mb", "MiB"},
}

// overheadOf lists the end-to-end timings whose tracing overhead a
// traced run reports. Peak RSS is a process-lifetime maximum, so the
// traced pass cannot be told apart from the untraced one.
var overheadOf = []string{"setup_s", "wall_s", "saturation_per_s", "latency_p50_us"}

// perLayer are the traced run's metrics. A workload that never enters
// a layer reports 0 for it.
var perLayer = func() []metricDef {
	var defs []metricDef
	for i := 1; i <= 26; i++ {
		defs = append(defs, metricDef{fmt.Sprintf("exp.E%02d_ms", i), "ms"})
	}
	for _, m := range []string{"pca", "svm", "adaboost", "dtree", "word2vec", "tfidf", "nmf", "nlp", "corpus"} {
		defs = append(defs, metricDef{m + ".cpu_s", "s"})
	}
	defs = append(defs,
		metricDef{"mathx.self_cpu_s", "s"},
		metricDef{"study.checks_failed", "count"},
		metricDef{"study.latency_tail_pct", "%"},
		metricDef{"latency.p90_us", "us"},
		metricDef{"latency.p99_us", "us"},
		metricDef{"ofconn.read_ns_per_frame", "ns"},
		metricDef{"ofconn.frames_per_read", "count"},
		metricDef{"sdn.app_ns_per_event", "ns"},
		metricDef{"sdn.standby_app_ns_per_event", "ns"},
		metricDef{"sdn.events_per_punt", "count"},
		metricDef{"cluster.submit_self_ns_per_event", "ns"},
		metricDef{"cluster.replicate_ns_per_event", "ns"},
		metricDef{"cluster.log_events", "count"},
		metricDef{"alloc.objects_per_punt", "count"},
		metricDef{"gc.pause_ms", "ms"},
		metricDef{"gen.late_p99_us", "us"},
		metricDef{"trackerd.read_handler_p50_us", "us"},
		metricDef{"trackerd.write_handler_p50_us", "us"},
		metricDef{"http.client_overhead_p50_us", "us"},
		metricDef{"tracker.refresh_cpu_s", "s"},
		metricDef{"durable.sync_p50_us", "us"},
		metricDef{"durable.syncs_per_write", "count"},
		metricDef{"durable.records_per_sync", "count"},
		metricDef{"alloc.objects_per_request", "count"},
	)
	for _, m := range endToEnd {
		if slices.Contains(overheadOf, m.name) {
			defs = append(defs, metricDef{"overhead." + m.name, m.unit})
		}
	}
	return defs
}()

// runConfig is what a workload receives: its seed, its measuring
// budget, where it may keep state, and the tracer (nil when untraced).
type runConfig struct {
	seed     int64
	seconds  float64
	stateDir string
	tr       *tracer
}

// outcome is what a workload measured.
type outcome struct {
	e2e, layer        map[string]float64
	attempted, failed int64
}

var workloads = map[string]struct {
	run func(runConfig) (outcome, error)
	// sampleEvery thins the kept spans of high-rate workloads.
	sampleEvery int64
}{
	"study":     {runStudy, 1},
	"flowsetup": {runFlowsetup, 256},
	"tracker":   {runTracker, 16},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "study, flowsetup, tracker, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring budget per run, in seconds")
	trace := flag.Int("trace", 0, "1 runs untraced and then traced, and prints the per-layer metrics")
	stateDir := flag.String("state", filepath.Join(".bench_build", "state"), "directory for spans, digests and the tracker's shards")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = []string{"study", "flowsetup", "tracker"}
	}
	fmt.Fprintf(os.Stderr, "perfbench: nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, *seconds, *trace)
	combined := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		res, err := runOne(name, runConfig{seed: *seed, seconds: *seconds, stateDir: *stateDir}, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printResult(res)
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, v := range res.Metrics {
			combined.Metrics[name+"."+k] = v
		}
	}
	if len(names) > 1 {
		printResult(combined)
	}
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runOne runs one workload, untraced and, when traced is set, a second
// time traced, and returns its result. A failed correctness gate is an
// error, so a returned result is always correct.
func runOne(name string, cfg runConfig, traced bool) (result, error) {
	w, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want study, flowsetup, tracker or all)", name)
	}
	base, err := w.run(cfg)
	if err != nil {
		return result{}, err
	}
	base.e2e["peak_rss_mb"] = peakRSSMB()
	res := result{Correct: true, Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metricValue{}}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{base.e2e[m.name], m.unit}
		}
		logE2E(name, "untraced", base.e2e)
		return res, nil
	}

	cfg.tr = newTracer(w.sampleEvery)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	tracedOut, err := w.run(cfg)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	logE2E(name, "untraced", base.e2e)
	logE2E(name, "traced", tracedOut.e2e)
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	cpu := aggregate(samples)
	for m := range cpuModules {
		tracedOut.layer[m+".cpu_s"] = cpu.cum[m]
	}
	tracedOut.layer["mathx.self_cpu_s"] = cpu.self["mathx"]
	tracedOut.layer["tracker.refresh_cpu_s"] = cpu.funcCum["tracker.refresh"]
	for _, m := range overheadOf {
		tracedOut.layer["overhead."+m] = tracedOut.e2e[m] - base.e2e[m]
	}
	// The latency tail is reported from the untraced pass.
	tracedOut.layer["latency.p90_us"] = base.layer["latency.p90_us"]
	tracedOut.layer["latency.p99_us"] = base.layer["latency.p99_us"]
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{tracedOut.layer[m.name], m.unit}
	}
	spans := filepath.Join(cfg.stateDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
	if err := cfg.tr.write(spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d spans in %s (%d dropped)\n", name, len(cfg.tr.spans), spans, cfg.tr.dropped)
	return res, nil
}

// logE2E prints a run's end-to-end figures to standard error, so a
// traced run shows both passes it compares.
func logE2E(name, pass string, m map[string]float64) {
	var b strings.Builder
	for _, d := range endToEnd {
		if v, ok := m[d.name]; ok {
			b.WriteString(" " + d.name + "=" + strconv.FormatFloat(v, 'g', 6, 64))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s %s:%s\n", name, pass, b.String())
}
