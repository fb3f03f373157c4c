package perfuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"sdnbugs/internal/metrics"
)

// maxGenomeLen caps genome growth under duplication and splicing.
const maxGenomeLen = 96

// Config parameterizes one fuzzing run. Every run is reproducible
// from (Seed, Generations, Population, GenomeLen): identical configs
// yield byte-identical reports.
type Config struct {
	Seed int64
	// Generations is the number of breeding rounds (default 6).
	Generations int
	// Population is the genome pool size per generation (default 8).
	Population int
	// GenomeLen is the initial random genome length (default 40).
	GenomeLen int
	// TopK is how many worst genomes the report keeps (default 3).
	TopK int
	// ShrinkBudget caps delta-debugging evaluations per reproducer
	// (default 400).
	ShrinkBudget int
	// Registry, when set, receives fuzzing observability: generations,
	// evals, cache hits, degraded finds, shrink steps, fitness and
	// tail-latency histograms — plus the per-eval supervisor's
	// supervise_* metrics.
	Registry *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Generations <= 0 {
		c.Generations = 6
	}
	if c.Population <= 0 {
		c.Population = 8
	}
	if c.GenomeLen <= 0 {
		c.GenomeLen = 40
	}
	if c.TopK <= 0 {
		c.TopK = 3
	}
	if c.ShrinkBudget <= 0 {
		c.ShrinkBudget = 400
	}
	return c
}

// Record is one evaluated schedule — a (genome → outcome) corpus
// entry the failure-inducing learner trains on.
type Record struct {
	Genome Genome `json:"genome"`
	Eval   Eval   `json:"eval"`
	// Source is "guided" or "random".
	Source string `json:"source"`
}

// ClassCount is one degradation class's tally in a search summary.
type ClassCount struct {
	Class string `json:"class"`
	Count int    `json:"count"`
}

// SearchStats summarizes one search mode (guided vs random) at equal
// evaluation budget.
type SearchStats struct {
	Evals       int          `json:"evals"`
	Distinct    int          `json:"distinct_genomes"`
	Degraded    int          `json:"degraded_genomes"`
	BestFitness float64      `json:"best_fitness"`
	Classes     []ClassCount `json:"classes,omitempty"`
}

// ScoredGenome is one ranked schedule in the report.
type ScoredGenome struct {
	Rank   int    `json:"rank"`
	Len    int    `json:"len"`
	Eval   Eval   `json:"eval"`
	Genome Genome `json:"genome"`
}

// Reproducer is a degradation-inducing genome delta-debugged to a
// minimal schedule that still triggers the same degradation class.
type Reproducer struct {
	Class         string  `json:"class"`
	ParentLen     int     `json:"parent_len"`
	ParentFitness float64 `json:"parent_fitness"`
	Len           int     `json:"len"`
	Eval          Eval    `json:"eval"`
	ShrinkSteps   int     `json:"shrink_steps"`
	ShrinkEvals   int     `json:"shrink_evals"`
	Genome        Genome  `json:"genome"`
}

// Report is the machine-readable outcome of one fuzzing run. Its
// JSON encoding is byte-identical across runs with the same Config
// (modulo Registry, which is observational only).
type Report struct {
	Seed         int64 `json:"seed"`
	Generations  int   `json:"generations"`
	Population   int   `json:"population"`
	GenomeLen    int   `json:"genome_len"`
	MaxGenomeLen int   `json:"max_genome_len"`

	BaselineMean float64 `json:"baseline_mean_ticks"`

	BestFitnessPerGen []float64 `json:"best_fitness_per_gen"`

	Guided SearchStats `json:"guided"`
	Random SearchStats `json:"random"`

	Worst       []ScoredGenome `json:"worst"`
	Reproducers []Reproducer   `json:"reproducers"`

	Learner LearnerReport `json:"learner"`

	CorpusSize  int `json:"corpus_size"`
	TotalEvals  int `json:"total_evals"`
	UniqueEvals int `json:"unique_evals"`
}

// JSON renders the report with stable indentation.
func (r *Report) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Fuzz runs the feedback-guided search, the equal-budget random
// baseline, reproducer shrinking, and failure-model learning.
func Fuzz(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	h := NewHarness(cfg.Seed, cfg.Registry)
	rep := &Report{
		Seed:         cfg.Seed,
		Generations:  cfg.Generations,
		Population:   cfg.Population,
		GenomeLen:    cfg.GenomeLen,
		MaxGenomeLen: maxGenomeLen,
	}

	// --- Guided search: elitist genetic loop. ---
	rng := rand.New(rand.NewSource(cfg.Seed*9176 + 11))
	pop := make([]Genome, cfg.Population)
	for i := range pop {
		pop[i] = RandomGenome(rng, cfg.GenomeLen)
	}
	var guided []Record
	seen := make(map[string]bool)
	record := func(list *[]Record, g Genome, e Eval, source string) {
		key := g.Fingerprint()
		if seen[key] {
			return
		}
		seen[key] = true
		*list = append(*list, Record{Genome: g, Eval: e, Source: source})
	}

	elite := cfg.Population / 4
	if elite < 2 {
		elite = 2
	}
	for gen := 0; gen <= cfg.Generations; gen++ {
		if cfg.Registry != nil {
			cfg.Registry.Counter("perfuzz_generations_total").Inc()
		}
		evals := make([]Eval, len(pop))
		for i, g := range pop {
			e, err := h.Eval(g)
			if err != nil {
				return nil, err
			}
			evals[i] = e
			record(&guided, g, e, "guided")
		}
		order := make([]int, len(pop))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return evals[order[a]].Fitness > evals[order[b]].Fitness
		})
		rep.BestFitnessPerGen = append(rep.BestFitnessPerGen, evals[order[0]].Fitness)
		if gen == cfg.Generations {
			break
		}
		next := make([]Genome, 0, cfg.Population)
		for i := 0; i < elite; i++ {
			next = append(next, pop[order[i]])
		}
		for len(next) < cfg.Population {
			if rng.Float64() < 0.3 && elite >= 2 {
				a := pop[order[rng.Intn(elite)]]
				b := pop[order[rng.Intn(elite)]]
				next = append(next, Splice(rng, a, b, maxGenomeLen))
			} else {
				next = append(next, Mutate(rng, pop[order[rng.Intn(elite)]], maxGenomeLen))
			}
		}
		pop = next
	}
	guidedEvals := h.Evals

	// --- Random baseline at the same evaluation budget. ---
	rngRand := rand.New(rand.NewSource(cfg.Seed*26417 + 3))
	var random []Record
	for i := 0; i < guidedEvals; i++ {
		g := RandomGenome(rngRand, cfg.GenomeLen)
		e, err := h.Eval(g)
		if err != nil {
			return nil, err
		}
		record(&random, g, e, "random")
	}

	rep.Guided = summarize(guided, guidedEvals)
	rep.Random = summarize(random, guidedEvals)

	// --- Worst genomes (guided, by fitness). ---
	ranked := append([]Record(nil), guided...)
	sort.SliceStable(ranked, func(a, b int) bool {
		return ranked[a].Eval.Fitness > ranked[b].Eval.Fitness
	})
	for i := 0; i < len(ranked) && i < cfg.TopK; i++ {
		rep.Worst = append(rep.Worst, ScoredGenome{
			Rank: i + 1, Len: len(ranked[i].Genome),
			Eval: ranked[i].Eval, Genome: ranked[i].Genome,
		})
	}

	// --- Shrink the best degraded genome of every observed class. ---
	bestPerClass := make(map[string]Record)
	var classOrder []string
	for _, r := range ranked { // fitness order → first hit per class wins
		if !r.Eval.Degraded() {
			continue
		}
		if _, ok := bestPerClass[r.Eval.Class]; !ok {
			bestPerClass[r.Eval.Class] = r
			classOrder = append(classOrder, r.Eval.Class)
		}
	}
	for _, class := range classOrder {
		parent := bestPerClass[class]
		shrunk, sEval, stats, err := Shrink(parent.Genome, class, h, cfg.ShrinkBudget)
		if err != nil {
			return nil, err
		}
		if cfg.Registry != nil {
			cfg.Registry.Counter("perfuzz_shrink_steps_total").Add(uint64(stats.Steps))
			cfg.Registry.Counter("perfuzz_shrink_evals_total").Add(uint64(stats.Evals))
		}
		rep.Reproducers = append(rep.Reproducers, Reproducer{
			Class:         class,
			ParentLen:     len(parent.Genome),
			ParentFitness: parent.Eval.Fitness,
			Len:           len(shrunk),
			Eval:          sEval,
			ShrinkSteps:   stats.Steps,
			ShrinkEvals:   stats.Evals,
			Genome:        shrunk,
		})
	}

	// --- Learn the failure-inducing model over the whole corpus. ---
	corpus := append(append([]Record(nil), guided...), random...)
	learner, err := Learn(corpus, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rep.Learner = learner

	rep.CorpusSize = len(corpus)
	rep.TotalEvals = h.Evals
	rep.UniqueEvals = h.UniqueEvals
	if len(guided) > 0 {
		rep.BaselineMean = guided[0].Eval.BaselineMean
	}
	return rep, nil
}

// summarize reduces a record list to search statistics with a
// deterministic class ordering.
func summarize(records []Record, evals int) SearchStats {
	s := SearchStats{Evals: evals, Distinct: len(records)}
	counts := make(map[string]int)
	for _, r := range records {
		if r.Eval.Fitness > s.BestFitness {
			s.BestFitness = r.Eval.Fitness
		}
		if r.Eval.Degraded() {
			s.Degraded++
			counts[r.Eval.Class]++
		}
	}
	classes := make([]string, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		s.Classes = append(s.Classes, ClassCount{Class: c, Count: counts[c]})
	}
	return s
}

// String renders a short human summary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"perfuzz seed=%d gens=%d pop=%d: guided %d/%d degraded (best fitness %.2f) vs random %d/%d (best %.2f); %d reproducers; learner %.3f vs majority %.3f",
		r.Seed, r.Generations, r.Population,
		r.Guided.Degraded, r.Guided.Distinct, r.Guided.BestFitness,
		r.Random.Degraded, r.Random.Distinct, r.Random.BestFitness,
		len(r.Reproducers), r.Learner.Accuracy, r.Learner.MajorityAccuracy)
}
