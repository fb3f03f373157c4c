package sdnbugs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"reflect"
	"strconv"
	"testing"

	"sdnbugs/internal/engine"
	"sdnbugs/internal/faultlab"
	"sdnbugs/internal/perfuzz"
	"sdnbugs/internal/repair"
)

// The golden contract pins the outputs of every registered experiment
// and ablation, the fault-campaign and cluster fingerprints, and the
// perfuzz and repair JSON reports, so a refactor proves "same
// behaviour" by test instead of by review. Regenerate with
//
//	go test -run TestGoldenContract -update .
//
// and review the diff of testdata/golden.json: any change there is a
// change of behaviour.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from this run")

const goldenPath = "testdata/golden.json"

// goldenSeeds are the seeds the contract pins, each run at its own
// engine settings: seed 1 fully serial, seed 2 with eight workers
// inside each experiment and four experiments at once. Both must
// reproduce the recorded digests, so the contract also pins that
// Workers and Parallelism never change an output.
var goldenSeeds = []struct {
	seed                 int64
	workers, parallelism int
}{
	{seed: 1, workers: 1, parallelism: 1},
	{seed: 2, workers: 8, parallelism: 4},
}

// goldenIDs are the experiments and ablations whose tables and checks
// the contract hashes: the whole registry, E01–E26 and A01–A07.
var goldenIDs = []string{
	"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08", "E09", "E10",
	"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20",
	"E21", "E22", "E23", "E24", "E25", "E26",
	"A01", "A02", "A03", "A04", "A05", "A06", "A07",
}

// goldenRaceSkip are the goldenIDs too slow to run under -race; the
// race pass neither runs them nor expects their recorded digests.
var goldenRaceSkip = map[string]bool{"E09": true, "A01": true, "A02": true, "A03": true}

// goldenRunIDs returns the goldenIDs this build runs.
func goldenRunIDs() []string {
	if !raceEnabled {
		return goldenIDs
	}
	var ids []string
	for _, id := range goldenIDs {
		if !goldenRaceSkip[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// goldenCampaigns are the four E22 campaign configurations.
var goldenCampaigns = []struct {
	name string
	cfg  faultlab.CampaignConfig
}{
	{"supervised-checkpoint", faultlab.CampaignConfig{Supervised: true, CheckpointEvery: e22CheckpointEvery}},
	{"supervised-checkpoint-rerun", faultlab.CampaignConfig{Supervised: true, CheckpointEvery: e22CheckpointEvery}},
	{"supervised-cold", faultlab.CampaignConfig{Supervised: true}},
	{"unsupervised", faultlab.CampaignConfig{}},
}

// goldenRecord is everything pinned for one seed.
type goldenRecord struct {
	// Digests maps experiment ID to the sha256 of its tables and checks.
	Digests map[string]string `json:"digests"`
	// Campaigns maps E22 configuration to CampaignResult.Fingerprint().
	Campaigns map[string]string `json:"campaigns"`
	// Cluster is ClusterCampaignResult.Fingerprint().
	Cluster string `json:"cluster"`
	// PerfuzzReport and RepairReport are sha256 digests of the E24
	// perfuzz report JSON and the E25 repair report JSON.
	PerfuzzReport string `json:"perfuzz_report"`
	RepairReport  string `json:"repair_report"`
}

// digestOutcomes hashes every outcome's checks and tables, in order,
// with length-prefixed fields so no two layouts collide — the same
// hash the perfbench study workload records per seed (perfbench is a
// module of its own, so the few lines are repeated here).
func digestOutcomes(outcomes []engine.Outcome[ExperimentResult]) string {
	h := sha256.New()
	field := func(s string) {
		io.WriteString(h, strconv.Itoa(len(s)))
		io.WriteString(h, ":")
		io.WriteString(h, s)
	}
	for _, o := range outcomes {
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

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenRun regenerates the record for one seed, running the suite
// with the given Workers and Parallelism.
func goldenRun(t *testing.T, seed int64, workers, parallelism int) goldenRecord {
	t.Helper()
	rec := goldenRecord{Digests: map[string]string{}, Campaigns: map[string]string{}}
	suite := NewSuite(seed)
	suite.Workers = workers
	run, err := suite.Run(context.Background(), RunOptions{IDs: goldenRunIDs(), Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range run.Outcomes {
		if o.Err != nil {
			t.Fatalf("seed %d: %s: %v", seed, o.ID, o.Err)
		}
		rec.Digests[o.ID] = digestOutcomes([]engine.Outcome[ExperimentResult]{o})
	}
	for _, c := range goldenCampaigns {
		cfg := c.cfg
		cfg.Seed = seed
		res, err := faultlab.RunCampaign(cfg)
		if err != nil {
			t.Fatalf("seed %d: campaign %s: %v", seed, c.name, err)
		}
		rec.Campaigns[c.name] = res.Fingerprint()
	}
	cl, err := faultlab.RunClusterCampaign(faultlab.ClusterCampaignConfig{Seed: seed})
	if err != nil {
		t.Fatalf("seed %d: cluster campaign: %v", seed, err)
	}
	rec.Cluster = cl.Fingerprint()
	fz, err := perfuzz.Fuzz(perfuzz.Config{Seed: seed})
	if err != nil {
		t.Fatalf("seed %d: perfuzz: %v", seed, err)
	}
	js, err := fz.JSON()
	if err != nil {
		t.Fatal(err)
	}
	rec.PerfuzzReport = sha256Hex(js)
	rp, err := repair.Run(repair.Config{Seed: seed})
	if err != nil {
		t.Fatalf("seed %d: repair: %v", seed, err)
	}
	if js, err = rp.JSON(); err != nil {
		t.Fatal(err)
	}
	rec.RepairReport = sha256Hex(js)
	return rec
}

func TestGoldenContract(t *testing.T) {
	if *updateGolden && raceEnabled {
		t.Fatal("-update would drop the digests -race skips; regenerate without -race")
	}
	got := map[string]goldenRecord{}
	for _, g := range goldenSeeds {
		got[fmt.Sprintf("seed%d", g.seed)] = goldenRun(t, g.seed, g.workers, g.parallelism)
	}
	if *updateGolden {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden seeds: recorded %d, ran %d", len(want), len(got))
	}
	for seed, g := range got {
		w, ok := want[seed]
		if !ok {
			t.Errorf("%s: not recorded", seed)
			continue
		}
		if raceEnabled {
			w.Digests = maps.Clone(w.Digests)
			for id := range goldenRaceSkip {
				delete(w.Digests, id)
			}
		}
		compareGolden(t, seed, w, g)
	}
}

// compareGolden reports every pinned field that moved.
func compareGolden(t *testing.T, seed string, want, got goldenRecord) {
	t.Helper()
	diffMap := func(kind string, w, g map[string]string) {
		for k, wv := range w {
			if gv, ok := g[k]; !ok {
				t.Errorf("%s %s %s: recorded but not produced", seed, kind, k)
			} else if gv != wv {
				t.Errorf("%s %s %s changed:\n  want %s\n  got  %s", seed, kind, k, wv, gv)
			}
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				t.Errorf("%s %s %s: produced but not recorded", seed, kind, k)
			}
		}
	}
	diffMap("digest", want.Digests, got.Digests)
	diffMap("campaign", want.Campaigns, got.Campaigns)
	for _, f := range []struct{ name, want, got string }{
		{"cluster fingerprint", want.Cluster, got.Cluster},
		{"perfuzz report", want.PerfuzzReport, got.PerfuzzReport},
		{"repair report", want.RepairReport, got.RepairReport},
	} {
		if f.want != f.got {
			t.Errorf("%s %s changed:\n  want %s\n  got  %s", seed, f.name, f.want, f.got)
		}
	}
	if !t.Failed() && !reflect.DeepEqual(want, got) {
		t.Errorf("%s: golden record differs", seed)
	}
}
