package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"sdnbugs"
	"sdnbugs/internal/engine"
)

// studySetups is how many fresh suites are built and timed per run.
const studySetups = 9

// newStudySuite builds the suite and its corpus, the study's set-up.
func newStudySuite(seed int64) (*sdnbugs.Suite, error) {
	s := sdnbugs.NewSuite(seed)
	s.Workers = 1
	if _, err := s.Corpus(); err != nil {
		return nil, err
	}
	return s, nil
}

// digestRun hashes every experiment's tables and checks, in order. Two
// runs at one seed must produce the same digest.
func digestRun(run engine.Run[sdnbugs.ExperimentResult]) string {
	h := sha256.New()
	field := func(s string) {
		io.WriteString(h, strconv.Itoa(len(s)))
		io.WriteString(h, ":")
		io.WriteString(h, s)
	}
	for _, o := range run.Outcomes {
		field(o.ID)
		for _, c := range o.Result.Checks {
			field(c.Artifact)
			field(c.Metric)
			field(c.Paper)
			field(c.Measured)
			field(strconv.FormatBool(c.Holds))
		}
		for _, t := range o.Result.Tables {
			field(t.Title)
			for _, hd := range t.Headers {
				field(hd)
			}
			for _, row := range t.Rows {
				for _, cell := range row {
					field(cell)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares a run's digest with the one recorded for this
// seed by an earlier run in the same checkout, recording it when none
// exists yet.
func checkDigest(dir string, seed int64, digest string) error {
	path := filepath.Join(dir, fmt.Sprintf("study-seed%d.digest", seed))
	prev, err := os.ReadFile(path)
	if err == nil {
		if string(prev) != digest {
			return fmt.Errorf("study: digest %s differs from the %s recorded for seed %d", digest, prev, seed)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(digest), 0o644)
}

func runStudy(cfg runConfig) (outcome, error) {
	var setups []float64
	var suites []*sdnbugs.Suite
	build := func() error {
		t0 := time.Now()
		s, err := newStudySuite(cfg.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		suites = append(suites, s)
		return nil
	}
	for i := 0; i < studySetups; i++ {
		if err := build(); err != nil {
			return outcome{}, err
		}
	}

	out := outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var walls, completions []float64
	expMS := map[string][]float64{}
	digest := ""
	checksFailed := 0
	// Run whole suites for about cfg.seconds: stop once another run
	// would overshoot the budget by more than half a run. Each run
	// takes a fresh suite, since a suite caches its fitted models.
	begin := time.Now()
	for runs := 0; runs == 0 || time.Since(begin).Seconds()*(1+0.5/float64(runs)) < cfg.seconds; runs++ {
		if runs >= len(suites) {
			if err := build(); err != nil {
				return outcome{}, err
			}
		}
		start := time.Now()
		root := cfg.tr.record("suite.run", -1, 0, start, start)
		var expStart time.Time
		run, err := suites[runs].Run(context.Background(), sdnbugs.RunOptions{
			Parallelism: 1,
			OnEvent: func(ev engine.Event) {
				now := time.Now()
				if ev.Type == engine.EventStart {
					expStart = now
					return
				}
				// Every experiment is due when the run starts.
				completions = append(completions, micros(now.Sub(start)))
				if cfg.tr != nil {
					cfg.tr.record("exp."+ev.ID, root, int64(ev.Index), expStart, now)
					expMS[ev.ID] = append(expMS[ev.ID], float64(ev.Duration)/float64(time.Millisecond))
				}
			},
		})
		wall := time.Since(start)
		suites[runs] = nil // let the fitted models go
		if err != nil {
			return outcome{}, err
		}
		if cfg.tr != nil && root >= 0 {
			cfg.tr.spans[root].End = cfg.tr.spans[root].Start + wall.Nanoseconds()
		}
		walls = append(walls, wall.Seconds())
		for _, o := range run.Outcomes {
			out.attempted++
			if o.Err != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "study: %s errored: %v\n", o.ID, o.Err)
			}
			checksFailed += o.Failed
		}
		d := digestRun(run)
		if digest != "" && d != digest {
			return outcome{}, fmt.Errorf("study: digest changed between runs at seed %d", cfg.seed)
		}
		digest = d
	}
	if err := checkDigest(cfg.stateDir, cfg.seed, digest); err != nil {
		return outcome{}, err
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["wall_s"] = median(walls)
	out.e2e["saturation_per_s"] = float64(out.attempted) / sum(walls)
	p50, _ := percentile(completions, 50)
	out.e2e["latency_p50_us"] = p50
	out.layer["latency.p90_us"], _ = tailPercentile(completions, 90)
	var used float64
	out.layer["latency.p99_us"], used = tailPercentile(completions, 99)
	out.layer["study.checks_failed"] = float64(checksFailed)
	out.layer["study.latency_tail_pct"] = used
	for id, ms := range expMS {
		out.layer["exp."+id+"_ms"] = median(ms)
	}
	return out, nil
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
