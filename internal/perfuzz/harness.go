package perfuzz

import (
	"fmt"
	"sort"

	"sdnbugs/internal/faultlab"
	"sdnbugs/internal/metrics"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/supervise"
	"sdnbugs/internal/taxonomy"
)

// Degradation classes the harness distinguishes, in detection
// priority order. An empty class means the schedule ran healthy.
const (
	ClassStall   = "stall"
	ClassPerf    = "perf-regression"
	ClassRestart = "crash-restart"
)

// FaultSuite returns the armed bug set the fuzzer searches against:
// *stateful* performance bugs whose activation needs the right event
// sequence, not a single poison input — the class SPIDER-style
// feedback fuzzing finds and random replay misses.
//
//   - queue-amplification: after trafficBudget network events in one
//     incarnation the event path degrades (+400 ticks/event) — only
//     traffic-dense schedules trip the supervisor's perf probe.
//   - config-churn-slowdown: configBudget config pushes saturate the
//     config pipeline; further pushes crawl.
//   - reboot-storm-stall: the rebootBudget'th device reboot in one
//     incarnation stalls the core (VOL-549's hang, made cumulative).
//   - poison-config-crash: CORD-2470's deterministic multicast crash,
//     for the crash-restart class.
func FaultSuite(seed int64) []*faultlab.Fault {
	specs := []faultlab.Spec{
		{
			Name:  "perfuzz-queue-amplification",
			Cause: taxonomy.CauseMemory, Trigger: taxonomy.TriggerNetworkEvent,
			Symptom: taxonomy.SymptomPerformance, Deterministic: true,
			MemoryBudget: trafficBudget,
		},
		{
			Name:  "perfuzz-config-churn-slowdown",
			Cause: taxonomy.CauseLoad, Trigger: taxonomy.TriggerConfiguration,
			Symptom: taxonomy.SymptomPerformance, Deterministic: true,
			MemoryBudget: configBudget,
		},
		{
			Name:  "perfuzz-reboot-storm-stall",
			Cause: taxonomy.CauseMemory, Trigger: taxonomy.TriggerHardwareReboot,
			Symptom: taxonomy.SymptomByzantine, Deterministic: true,
			MemoryBudget: rebootBudget,
		},
		{
			Name:  "perfuzz-poison-config-crash",
			Cause: taxonomy.CauseHumanMisconfig, Trigger: taxonomy.TriggerConfiguration,
			Symptom: taxonomy.SymptomFailStop, Deterministic: true,
		},
	}
	out := make([]*faultlab.Fault, len(specs))
	for i, s := range specs {
		out[i] = faultlab.NewFault(s, seed+int64(i)*31)
	}
	return out
}

// Stateful-fault budgets: matching events per controller incarnation
// before the bug manifests. Tuned so an average random schedule stays
// just under the thresholds — degradation requires the dense or
// poisoned schedules the search converges on.
const (
	trafficBudget = 80
	configBudget  = 12
	rebootBudget  = 5
)

// Eval is the measured outcome of running one genome: supervisor
// probe signals plus the per-event latency distribution, collapsed
// into a scalar fitness and a degradation class.
type Eval struct {
	Fitness float64 `json:"fitness"`
	// Class is the degradation class ("" = healthy).
	Class string `json:"class,omitempty"`

	Offered   int `json:"offered"`
	Processed int `json:"processed"`
	Shed      int `json:"shed"`

	Stalls          int `json:"stalls"`
	PerfRegressions int `json:"perf_regressions"`
	FailStops       int `json:"fail_stops"`
	Restarts        int `json:"restarts"`
	Degradations    int `json:"degradations"`
	WireErrors      int `json:"wire_errors"`

	// Latency distribution over offered events, in logical ticks
	// (heal time included: that is the latency the event experienced).
	MeanTicks float64 `json:"mean_ticks"`
	P50Ticks  float64 `json:"p50_ticks"`
	P95Ticks  float64 `json:"p95_ticks"`
	P99Ticks  float64 `json:"p99_ticks"`

	BaselineMean float64 `json:"baseline_mean"`
}

// Degraded reports whether the schedule induced any degradation.
func (e Eval) Degraded() bool { return e.Class != "" }

// fitness collapses probe signals and the latency tail into one
// scalar. Probe firings dominate; the continuous latency terms give
// the search a gradient between threshold crossings.
func (e *Eval) computeFitness() {
	base := e.BaselineMean
	if base <= 0 {
		base = 1
	}
	e.Fitness = 8*float64(e.Stalls) +
		6*float64(e.PerfRegressions) +
		4*float64(e.FailStops) +
		float64(e.Restarts) +
		e.MeanTicks/base +
		e.P99Ticks/base/10
}

// classify buckets the run by its dominant symptom, priority-ordered
// so the class is stable under shrinking.
func (e *Eval) classify() {
	switch {
	case e.Stalls > 0:
		e.Class = ClassStall
	case e.PerfRegressions > 0:
		e.Class = ClassPerf
	case e.FailStops > 0:
		e.Class = ClassRestart
	default:
		e.Class = ""
	}
}

// Harness evaluates genomes against a fresh supervised controller
// per run. Evaluation is a pure function of (harness seed, genome):
// each run builds its own lab and PRNG streams, so the same genome
// always produces the same Eval — the property the shrinker and the
// byte-identity checks rely on. Results are memoized by genome
// fingerprint.
type Harness struct {
	Seed int64

	// Registry, when set, receives fuzzing counters/histograms
	// (evals, cache hits, degradations found, fitness, tail latency).
	Registry *metrics.Registry

	// Suite, when set, overrides the armed fault set (default
	// FaultSuite) — the repair loop evaluates reproducers against the
	// campaign's full fault matrix instead of the fuzzer's.
	Suite func(seed int64) []*faultlab.Fault
	// Program, when set, interposes a flow-rule program ahead of the
	// supervisor's filter, mirroring the campaign session: a candidate
	// repair is replayed against the very reproducer that triggered
	// the shed. Clamp counters reset on restart and at the start of
	// every run. The memo cache keys on the genome alone, so use a
	// fresh harness per program.
	Program *sdn.Program

	cache map[string]Eval
	// slots is the compiled-schedule buffer, reused across runs.
	slots []faultlab.Slot
	// Evals counts logical evaluations (cache hits included);
	// UniqueEvals counts lab runs.
	Evals       int
	UniqueEvals int
}

// NewHarness returns a memoizing evaluator for the seed.
func NewHarness(seed int64, reg *metrics.Registry) *Harness {
	return &Harness{Seed: seed, Registry: reg, cache: make(map[string]Eval)}
}

// checkpointEvery is the supervised checkpoint cadence during
// evaluation runs.
const checkpointEvery = 32

// Eval runs one genome under supervision and scores it.
func (h *Harness) Eval(g Genome) (Eval, error) {
	h.Evals++
	h.count("perfuzz_evals_total")
	key := g.Fingerprint()
	if e, ok := h.cache[key]; ok {
		h.count("perfuzz_eval_cache_hits_total")
		return e, nil
	}
	e, err := h.run(g)
	if err != nil {
		return Eval{}, err
	}
	h.UniqueEvals++
	h.cache[key] = e
	if e.Degraded() {
		h.count("perfuzz_degraded_evals_total")
	}
	h.observe("perfuzz_fitness", e.Fitness)
	h.observe("perfuzz_eval_p99_ticks", e.P99Ticks)
	return e, nil
}

// run executes the genome on a fresh lab.
func (h *Harness) run(g Genome) (Eval, error) {
	suite := h.Suite
	if suite == nil {
		suite = FaultSuite
	}
	sv, err := faultlab.NewSupervised(suite(h.Seed), h.Program, supervise.Config{
		CheckpointEvery: checkpointEvery,
		Metrics:         h.Registry,
	})
	if err != nil {
		return Eval{}, fmt.Errorf("perfuzz: lab: %w", err)
	}
	h.Program.NewIncarnation()
	sched, err := g.Compile(h.slots[:0], h.Seed, sv.Net().Hosts(), sv.Net().Switches())
	if err != nil {
		return Eval{}, err
	}
	h.slots = sched.Slots
	rt := &evalRuntime{Supervised: sv}
	if err := faultlab.NewPlayer(rt, sched).Play(); err != nil {
		return Eval{}, fmt.Errorf("perfuzz: wire episode: %w", err)
	}

	r := sv.SupervisorResult()
	e := Eval{
		Offered:         r.Offered,
		Processed:       r.Processed,
		Shed:            r.Shed,
		Stalls:          r.Stalls,
		PerfRegressions: r.PerfRegressions,
		FailStops:       r.FailStops,
		Restarts:        r.Restarts,
		Degradations:    r.Degradations,
		WireErrors:      r.WireErrors,
		BaselineMean:    sv.Lab.BaselineMeanCost(),
	}
	e.MeanTicks, e.P50Ticks, e.P95Ticks, e.P99Ticks = latencySummary(rt.costs)
	e.classify()
	e.computeFitness()
	return e, nil
}

// evalRuntime is the supervised campaign runtime plus per-event
// latency capture: each event that reaches the supervisor is charged
// the delta of the supervisor's monotonic uptime+recovery tick total,
// so heal time (restarts, replays) lands on the event that caused it.
// Punts are offered one at a time, with no log reservation.
type evalRuntime struct {
	*faultlab.Supervised
	costs []int
}

func (r *evalRuntime) elapsed() int {
	return r.Sup.Metrics.UptimeTicks + r.Sup.Metrics.RecoveryTicks
}

func (r *evalRuntime) Submit(events []sdn.Event) {
	for _, ev := range events {
		before := r.elapsed()
		if _, ok := r.Offer(ev); ok {
			r.costs = append(r.costs, r.elapsed()-before)
		}
	}
}

func (r *evalRuntime) Slot(_ int, s faultlab.Slot, play func(faultlab.Slot) error) error {
	return play(s)
}

// Probe floods without judging: degradation shows in the probe
// signals and the latency tail instead.
func (r *evalRuntime) Probe(s faultlab.Slot, flood func(faultlab.Slot) int) { flood(s) }

// latencySummary reduces per-event tick costs to mean and quantiles.
func latencySummary(costs []int) (mean, p50, p95, p99 float64) {
	if len(costs) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append([]int(nil), costs...)
	sort.Ints(sorted)
	sum := 0
	for _, c := range sorted {
		sum += c
	}
	q := func(f float64) float64 {
		i := int(f*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return float64(sorted[i])
	}
	return float64(sum) / float64(len(sorted)), q(0.50), q(0.95), q(0.99)
}

// count increments a harness counter when a registry is attached.
func (h *Harness) count(name string) {
	if h.Registry != nil {
		h.Registry.Counter(name).Inc()
	}
}

// observe records a harness histogram sample when a registry is
// attached.
func (h *Harness) observe(name string, v float64) {
	if h.Registry != nil {
		h.Registry.Histogram(name).Observe(v)
	}
}
