package repair

// The repair loop. Run plays a supervised campaign epoch until the
// supervisor sheds its deterministic poison classes, then for each
// shed class (in shed order): synthesize candidate programs from the
// repair grammar, rank them with a failure model trained on a
// harness-labeled schedule corpus, replay the class's ddmin minimal
// reproducer against the likely-healthy candidates, validate the
// survivors with the full fault-injection campaign, and — only when a
// candidate passes everything — lift the shed on the live session and
// play a second epoch to measure the repaired availability. Classes
// with no passing candidate stay shed: the loop degrades gracefully
// to exactly the E22 behavior it started from.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"sdnbugs/internal/faultlab"
	"sdnbugs/internal/metrics"
	"sdnbugs/internal/openflow"
	"sdnbugs/internal/perfuzz"
	"sdnbugs/internal/sdn"
)

// Config parameterizes one repair-loop run.
type Config struct {
	Seed int64
	// Events is the campaign schedule length per epoch (default 1500).
	Events int
	// CheckpointEvery is the supervised checkpoint cadence (default 64).
	CheckpointEvery int
	// MaxCandidates bounds full validations (reproducer replay +
	// campaign) per shed class (default 8) — the ranking decides which
	// candidates get them.
	MaxCandidates int
	// ShrinkBudget bounds ddmin evaluations per reproducer (default 200).
	ShrinkBudget int
	// Classes, when non-empty, restricts repair attempts to these shed
	// classes (others stay shed without an attempt).
	Classes []string
	// Metrics, when set, receives repair counters and the
	// validation-wall histogram. Purely observational — reports stay
	// byte-identical.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Events <= 0 {
		c.Events = 1500
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 8
	}
	if c.ShrinkBudget <= 0 {
		c.ShrinkBudget = 200
	}
	return c
}

func (c Config) count(name string) {
	if c.Metrics != nil {
		c.Metrics.Counter(name).Inc()
	}
}

func (c Config) observe(name string, v float64) {
	if c.Metrics != nil {
		c.Metrics.Histogram(name).Observe(v)
	}
}

// EpochSummary condenses one campaign epoch of the live session.
type EpochSummary struct {
	Offered      int      `json:"offered"`
	Processed    int      `json:"processed"`
	Shed         int      `json:"shed"`
	Availability float64  `json:"availability"`
	ShedClasses  []string `json:"shed_classes"`
}

// Attempt is one ranked candidate's fate.
type Attempt struct {
	Rank  int    `json:"rank"`
	Patch string `json:"patch"`
	// PredictedDegraded is the failure model's vote on the candidate's
	// projected reproducer schedule.
	PredictedDegraded bool `json:"predicted_degraded"`
	// Outcome is "repaired", "invalid", "rejected-reproducer",
	// "rejected-campaign", or "skipped-budget".
	Outcome      string   `json:"outcome"`
	Regressions  []string `json:"regressions,omitempty"`
	Availability float64  `json:"availability,omitempty"`
}

// ClassRepair is the per-class repair record.
type ClassRepair struct {
	Class    string `json:"class"`
	Category string `json:"category"`
	// Candidates is the synthesized sketch-grid size.
	Candidates int `json:"candidates"`
	// ReproducerLen is the ddmin minimal reproducer's gene count (0 =
	// the class degrades silently and only the campaign can judge it).
	ReproducerLen   int       `json:"reproducer_len"`
	ReproducerClass string    `json:"reproducer_class,omitempty"`
	Attempts        []Attempt `json:"attempts"`
	Repaired        bool      `json:"repaired"`
	Patch           string    `json:"patch,omitempty"`
}

// CategoryRate is the NetRep-style repair rate for one taxonomy
// trigger category.
type CategoryRate struct {
	Category string  `json:"category"`
	Shed     int     `json:"shed"`
	Repaired int     `json:"repaired"`
	Rate     float64 `json:"rate"`
}

// LearnerInfo records the failure model behind the ranking.
type LearnerInfo struct {
	CorpusSize int  `json:"corpus_size"`
	Trained    bool `json:"trained"`
}

// FinalSummary is the composed program's full-campaign validation.
type FinalSummary struct {
	Availability       float64  `json:"availability"`
	Regressions        []string `json:"regressions"`
	ShedClasses        []string `json:"shed_classes"`
	ProgramRules       int      `json:"program_rules"`
	ProgramFingerprint string   `json:"program_fingerprint"`
}

// Report is the repair loop's deterministic output: every field is
// logical (counts, classes, availabilities), no wall-clock anywhere,
// so the same seed yields byte-identical JSON.
type Report struct {
	Seed   int64 `json:"seed"`
	Events int   `json:"events"`
	// ShedOrder is the order the supervisor shed classes in epoch 1 —
	// the order repairs are attempted in.
	ShedOrder []string      `json:"shed_order"`
	Epoch1    EpochSummary  `json:"epoch1"`
	Epoch2    EpochSummary  `json:"epoch2"`
	Learner   LearnerInfo   `json:"learner"`
	Classes   []ClassRepair `json:"classes"`
	// Rates is the repair rate by taxonomy trigger category.
	Rates []CategoryRate `json:"rates"`
	Final FinalSummary   `json:"final"`
	// Lifted lists the sheds the loop lifted; ReShed lists lifted
	// classes the supervisor shed again in epoch 2 (must stay empty —
	// a repair that doesn't hold is no repair).
	Lifted []string `json:"lifted"`
	ReShed []string `json:"re_shed"`
}

// JSON renders the report as stable indented JSON.
func (r Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// category extracts the taxonomy trigger category from a degradation
// class ("external-call/atomix" → "external-call").
func category(class string) string {
	if i := strings.IndexByte(class, '/'); i >= 0 {
		return class[:i]
	}
	return class
}

func summarize(r faultlab.CampaignResult) EpochSummary {
	return EpochSummary{
		Offered:      r.Offered,
		Processed:    r.Processed,
		Shed:         r.Shed,
		Availability: r.EventAvailability(),
		ShedClasses:  append([]string{}, r.ShedClasses...),
	}
}

// epochDelta isolates the second epoch from cumulative session
// results (counters are monotonic; ShedClasses is the live set).
func epochDelta(before, after faultlab.CampaignResult) EpochSummary {
	s := EpochSummary{
		Offered:     after.Offered - before.Offered,
		Processed:   after.Processed - before.Processed,
		Shed:        after.Shed - before.Shed,
		ShedClasses: append([]string{}, after.ShedClasses...),
	}
	if s.Offered > 0 {
		s.Availability = float64(s.Processed) / float64(s.Offered)
	} else {
		s.Availability = 1
	}
	return s
}

// Run executes the full repair loop at one seed.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	ccfg := faultlab.CampaignConfig{
		Seed:            cfg.Seed,
		Events:          cfg.Events,
		Supervised:      true,
		CheckpointEvery: cfg.CheckpointEvery,
		Metrics:         cfg.Metrics,
	}

	// Epoch 1: let the supervisor shed. OnShed records shed order — the
	// repair queue.
	var shedOrder []string
	scfg := ccfg
	scfg.OnShed = func(class string) { shedOrder = append(shedOrder, class) }
	sess, err := faultlab.NewSession(scfg)
	if err != nil {
		return Report{}, err
	}
	r1, err := sess.PlayEpoch()
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Seed:      cfg.Seed,
		Events:    cfg.Events,
		ShedOrder: append([]string{}, shedOrder...),
		Epoch1:    summarize(r1),
		Lifted:    []string{},
		ReShed:    []string{},
	}

	// The acceptance gate: full campaigns against the unpatched
	// shed-mode baseline.
	validator, err := faultlab.NewValidator(ccfg)
	if err != nil {
		return Report{}, err
	}

	// The ranking brain: a failure model over harness-labeled
	// schedules. Training failure (degenerate corpus) downgrades
	// ranking to synthesis order — the loop still validates.
	model, corpusSize, err := trainModel(cfg)
	if err != nil {
		return Report{}, err
	}
	rep.Learner = LearnerInfo{CorpusSize: corpusSize, Trained: model != nil}

	targets := shedOrder
	if len(cfg.Classes) > 0 {
		want := make(map[string]bool, len(cfg.Classes))
		for _, c := range cfg.Classes {
			want[c] = true
		}
		targets = targets[:0:0]
		for _, c := range shedOrder {
			if want[c] {
				targets = append(targets, c)
			}
		}
	}

	// Repair classes in shed order, composing winners: each class is
	// patched on top of the programs that already repaired its
	// predecessors, so the final program is validated as a whole.
	var composed *sdn.Program
	var repaired []string
	for _, class := range targets {
		cr, winner, err := repairClass(cfg, validator, model, class, composed)
		if err != nil {
			return Report{}, err
		}
		rep.Classes = append(rep.Classes, cr)
		if cr.Repaired {
			composed = winner
			repaired = append(repaired, class)
		}
	}

	// Final gate: the composed program re-validated as one unit.
	if composed != nil {
		v, err := validator.Validate(composed, "")
		if err != nil {
			return Report{}, err
		}
		rep.Final = FinalSummary{
			Availability:       v.PatchedAvailability,
			Regressions:        append([]string{}, v.Regressions...),
			ShedClasses:        append([]string{}, v.ShedClasses...),
			ProgramRules:       len(composed.Rules),
			ProgramFingerprint: composed.Fingerprint(),
		}
	} else {
		rep.Final = FinalSummary{
			Availability:       r1.EventAvailability(),
			Regressions:        []string{},
			ShedClasses:        append([]string{}, r1.ShedClasses...),
			ProgramFingerprint: (*sdn.Program)(nil).Fingerprint(),
		}
	}

	// Install the program and lift the repaired sheds on the *live*
	// session — the same supervisor that shed them — then play epoch 2
	// against the identical schedule to measure repaired availability.
	sess.SetProgram(composed)
	for _, class := range repaired {
		if sess.Sup.LiftShed(class) {
			rep.Lifted = append(rep.Lifted, class)
			cfg.count("repair_sheds_lifted_total")
		}
	}
	r2, err := sess.PlayEpoch()
	if err != nil {
		return Report{}, err
	}
	rep.Epoch2 = epochDelta(r1, r2)
	for _, class := range rep.Lifted {
		for _, c := range r2.ShedClasses {
			if c == class {
				rep.ReShed = append(rep.ReShed, class)
			}
		}
	}

	// NetRep-style repair rate by taxonomy trigger category.
	byCat := map[string]*CategoryRate{}
	var cats []string
	for _, class := range targets {
		cat := category(class)
		if byCat[cat] == nil {
			byCat[cat] = &CategoryRate{Category: cat}
			cats = append(cats, cat)
		}
		byCat[cat].Shed++
	}
	for _, class := range repaired {
		byCat[category(class)].Repaired++
	}
	sort.Strings(cats)
	for _, cat := range cats {
		cr := byCat[cat]
		cr.Rate = float64(cr.Repaired) / float64(cr.Shed)
		rep.Rates = append(rep.Rates, *cr)
	}
	return rep, nil
}

// newHarness builds a reproducer harness bound to the campaign's full
// fault matrix and a candidate program. Fresh per program: the memo
// cache keys on the genome alone.
func newHarness(cfg Config, prog *sdn.Program) *perfuzz.Harness {
	h := perfuzz.NewHarness(cfg.Seed, cfg.Metrics)
	h.Suite = faultlab.CampaignSuite
	if prog != nil {
		h.Program = prog.Clone()
	}
	return h
}

// repairClass runs the synthesize → rank → validate loop for one shed
// class on top of the already-composed program.
func repairClass(cfg Config, validator *faultlab.Validator, model *perfuzz.FailureModel, class string, base *sdn.Program) (ClassRepair, *sdn.Program, error) {
	cr := ClassRepair{Class: class, Category: category(class), Attempts: []Attempt{}}

	// Minimal reproducer: replay the class's poison schedule under the
	// current program and ddmin-shrink it. A class that degrades
	// silently (byzantine divergence — no probe ever fires) has no
	// reproducer; its candidates go straight to campaign validation.
	seedG := seedGenome(class)
	var reproducer perfuzz.Genome
	if len(seedG) > 0 {
		h := newHarness(cfg, base)
		ev, err := h.Eval(seedG)
		if err != nil {
			return cr, nil, err
		}
		if ev.Degraded() {
			shrunk, _, _, err := perfuzz.Shrink(seedG, ev.Class, h, cfg.ShrinkBudget)
			if err != nil {
				return cr, nil, err
			}
			reproducer = shrunk
			cr.ReproducerLen = len(shrunk)
			cr.ReproducerClass = ev.Class
		}
	}
	rankOn := reproducer
	if len(rankOn) == 0 {
		rankOn = seedG
	}

	candidates := SynthesizeCandidates(class, base)
	cr.Candidates = len(candidates)
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("repair_candidates_generated_total").Add(uint64(len(candidates)))
	}

	// Rank: instantiate every sketch, project the reproducer schedule
	// through the candidate program, and ask the failure model whether
	// the projection still degrades. Predicted-healthy candidates
	// validate first; the sort is stable, so synthesis order breaks
	// ties deterministically.
	type ranked struct {
		patch     Patch
		prog      *sdn.Program
		predicted bool
		invalid   error
	}
	rankedList := make([]ranked, 0, len(candidates))
	for _, c := range candidates {
		prog, err := c.Apply(base)
		rc := ranked{patch: c, prog: prog, invalid: err}
		if err == nil && model != nil {
			rc.predicted = model.PredictDegraded(projectGenome(prog, rankOn))
		}
		rankedList = append(rankedList, rc)
	}
	sort.SliceStable(rankedList, func(i, j int) bool {
		return !rankedList[i].predicted && rankedList[j].predicted
	})

	validated := 0
	for i, rc := range rankedList {
		attempt := Attempt{Rank: i + 1, Patch: rc.patch.String(), PredictedDegraded: rc.predicted}
		if rc.invalid != nil {
			attempt.Outcome = "invalid"
			cfg.count("repair_candidates_rejected_total")
			cr.Attempts = append(cr.Attempts, attempt)
			continue
		}
		if validated >= cfg.MaxCandidates {
			attempt.Outcome = "skipped-budget"
			cr.Attempts = append(cr.Attempts, attempt)
			continue
		}
		validated++
		start := time.Now()

		// Stage 1: the candidate must defuse the minimal reproducer
		// before it earns a full campaign.
		if len(reproducer) > 0 {
			h := newHarness(cfg, rc.prog)
			ev, err := h.Eval(reproducer)
			if err != nil {
				return cr, nil, err
			}
			if ev.Degraded() {
				cfg.observe("repair_validation_wall_ms", float64(time.Since(start).Milliseconds()))
				attempt.Outcome = "rejected-reproducer"
				cfg.count("repair_candidates_rejected_total")
				cr.Attempts = append(cr.Attempts, attempt)
				continue
			}
		}

		// Stage 2: the full campaign, judged against the shed-mode
		// baseline on the named checklist.
		v, err := validator.Validate(rc.prog, class)
		cfg.observe("repair_validation_wall_ms", float64(time.Since(start).Milliseconds()))
		if err != nil {
			return cr, nil, err
		}
		cfg.count("repair_candidates_validated_total")
		attempt.Regressions = append([]string{}, v.Regressions...)
		attempt.Availability = v.PatchedAvailability
		if v.Pass {
			attempt.Outcome = "repaired"
			cr.Attempts = append(cr.Attempts, attempt)
			cr.Repaired = true
			cr.Patch = rc.patch.String()
			return cr, rc.prog, nil
		}
		attempt.Outcome = "rejected-campaign"
		cfg.count("repair_candidates_rejected_total")
		cr.Attempts = append(cr.Attempts, attempt)
	}
	return cr, nil, nil
}

// trainModel labels a handcrafted schedule corpus on the campaign
// fault matrix and fits the failure model. The corpus is deliberately
// constructed, not sampled: under the campaign suite nearly every
// random schedule degrades (external-call drift, reboot stalls), so a
// random corpus would be all one label. Benign schedules mix the ops
// the suite tolerates; poison seeds and their prefixes supply the
// degraded side.
func trainModel(cfg Config) (*perfuzz.FailureModel, int, error) {
	h := newHarness(cfg, nil)
	benignOps := []perfuzz.Op{perfuzz.OpConfig, perfuzz.OpUnicast, perfuzz.OpBroadcast}
	var genomes []perfuzz.Genome
	for n := 1; n <= 8; n++ {
		g := make(perfuzz.Genome, n)
		for i := range g {
			g[i] = perfuzz.Gene{Op: benignOps[(i+n)%len(benignOps)], A: uint16(i), B: uint16(2 * i)}
		}
		genomes = append(genomes, g)
	}
	// Pure single-op benign runs give the model per-op resolution at
	// short lengths — the shape of a projected (rewritten) reproducer.
	for _, op := range benignOps {
		for _, n := range []int{1, 2, 4} {
			g := make(perfuzz.Genome, n)
			for i := range g {
				g[i] = perfuzz.Gene{Op: op, A: uint16(i), B: uint16(i)}
			}
			genomes = append(genomes, g)
		}
	}
	for _, class := range faultlab.DeterministicPoisonClasses() {
		seed := seedGenome(class)
		for n := 1; n <= len(seed); n += 2 {
			genomes = append(genomes, seed[:n])
		}
		// Benign prefix + poison tail: the mixed schedules the ranking
		// actually has to judge.
		mixed := append(append(perfuzz.Genome{}, genomes[2]...), seed...)
		genomes = append(genomes, mixed)
	}
	corpus := make([]perfuzz.Record, 0, len(genomes))
	for _, g := range genomes {
		e, err := h.Eval(g)
		if err != nil {
			return nil, 0, err
		}
		corpus = append(corpus, perfuzz.Record{Genome: g, Eval: e, Source: "repair-corpus"})
	}
	model, err := perfuzz.TrainFailureModel(corpus)
	if err != nil {
		// Degenerate corpus: fall back to synthesis-order validation.
		return nil, len(corpus), nil
	}
	return model, len(corpus), nil
}

// seedGenome is the densest schedule of a class's poison op — the
// starting point the shrinker minimizes and the ranking projects
// through candidate programs.
func seedGenome(class string) perfuzz.Genome {
	rep := func(op perfuzz.Op, n int, odd bool) perfuzz.Genome {
		g := make(perfuzz.Genome, n)
		for i := range g {
			a := uint16(2 * i)
			if odd {
				a++
			}
			g[i] = perfuzz.Gene{Op: op, A: a, B: uint16(i)}
		}
		return g
	}
	switch class {
	case "configuration/multicast":
		return rep(perfuzz.OpPoisonConfig, 6, false)
	case "external-call/influxdb":
		return rep(perfuzz.OpExternal, 6, false)
	case "external-call/atomix":
		return rep(perfuzz.OpExternal, 6, true)
	case "hardware-reboot":
		return rep(perfuzz.OpReboot, 6, false)
	case "network-event/mirror-vlan":
		return rep(perfuzz.OpMirrorBroadcast, 8, false)
	}
	return nil
}

// geneEvent renders a gene as the representative controller event the
// harness would offer for it. Wire-fault genes have no event form.
func geneEvent(g perfuzz.Gene) (sdn.Event, bool) {
	switch g.Op {
	case perfuzz.OpConfig:
		return sdn.Event{Kind: sdn.EventConfig,
			Key:   fmt.Sprintf("vlan.zone%d", int(g.A)%40),
			Value: fmt.Sprintf("%d", 100+int(g.B)%3000)}, true
	case perfuzz.OpPoisonConfig:
		return sdn.Event{Kind: sdn.EventConfig,
			Key: fmt.Sprintf("multicast.group%d", int(g.A)%8), Value: "225"}, true
	case perfuzz.OpExternal:
		svc := "influxdb"
		if g.A%2 == 1 {
			svc = "atomix"
		}
		return sdn.Event{Kind: sdn.EventExternalCall, Service: svc}, true
	case perfuzz.OpReboot:
		return sdn.Event{Kind: sdn.EventHardwareReboot, DPID: uint64(g.A)}, true
	case perfuzz.OpUnicast:
		return packetEvent(sdn.Packet{EthSrc: 1, EthDst: 2, EthType: 0x0800}), true
	case perfuzz.OpBroadcast:
		return packetEvent(sdn.Packet{EthSrc: 1, EthDst: sdn.BroadcastMAC, EthType: 0x0806}), true
	case perfuzz.OpMirrorBroadcast:
		return packetEvent(sdn.Packet{EthSrc: 1, EthDst: sdn.BroadcastMAC,
			EthType: 0x0806, VlanID: faultlab.PoisonVLAN}), true
	}
	return sdn.Event{}, false
}

// packetEvent wraps a frame in a packet-in network event.
func packetEvent(p sdn.Packet) sdn.Event {
	return sdn.Event{Kind: sdn.EventNetwork,
		Msg: &openflow.PacketIn{Data: sdn.EncodePacket(p)}}
}

// eventOp classifies a (possibly rewritten) event back onto the
// genome op vocabulary.
func eventOp(ev sdn.Event, fallback perfuzz.Op) perfuzz.Op {
	switch ev.Kind {
	case sdn.EventConfig:
		if strings.HasPrefix(ev.Key, "multicast.") {
			return perfuzz.OpPoisonConfig
		}
		return perfuzz.OpConfig
	case sdn.EventExternalCall:
		return perfuzz.OpExternal
	case sdn.EventHardwareReboot:
		return perfuzz.OpReboot
	case sdn.EventNetwork:
		if pkt, ok := sdn.PacketOf(ev); ok {
			switch {
			case pkt.IsBroadcast() && pkt.VlanID == faultlab.PoisonVLAN:
				return perfuzz.OpMirrorBroadcast
			case pkt.IsBroadcast():
				return perfuzz.OpBroadcast
			}
			return perfuzz.OpUnicast
		}
	}
	return fallback
}

// projectGenome simulates the candidate program over the schedule's
// representative events and re-expresses the surviving (possibly
// rewritten) events as a genome — the schedule the controller would
// actually see — for the failure model to judge. The projection is an
// approximation (pads and wire faults pass through untouched), which
// is exactly the point: the model triages cheaply, the campaign
// decides.
func projectGenome(prog *sdn.Program, g perfuzz.Genome) perfuzz.Genome {
	sim := prog.Clone()
	sim.NewIncarnation()
	out := make(perfuzz.Genome, 0, len(g))
	for _, gene := range g {
		ev, ok := geneEvent(gene)
		if !ok {
			out = append(out, gene)
			continue
		}
		res, verdict := sim.Apply(ev)
		if verdict == sdn.VerdictDropped {
			continue
		}
		gene.Op = eventOp(res, gene.Op)
		out = append(out, gene)
	}
	return out
}
