package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture redirects one of the process streams (a pointer to
// os.Stdout or os.Stderr) while fn runs and returns what was written.
func capture(t *testing.T, stream **os.File, fn func()) string {
	t.Helper()
	old := *stream
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*stream = w
	defer func() { *stream = old }()
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	fn()
	_ = w.Close()
	return <-done
}

func TestRunUsage(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Errorf("no args exit code = %d, want 2", code)
	}
	if code := run([]string{"nosuchcmd"}); code != 2 {
		t.Errorf("unknown cmd exit code = %d, want 2", code)
	}
}

func TestGenerateWritesCorpus(t *testing.T) {
	out := filepath.Join(t.TempDir(), "corpus.json")
	if code := run([]string{"generate", "-seed", "3", "-out", out}); code != 0 {
		t.Fatalf("generate exit code = %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Issues []struct {
			ID         string `json:"id"`
			Controller string `json:"controller"`
		} `json:"issues"`
		ManualIDs []string `json:"manual_ids"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Issues) != 795 {
		t.Errorf("issues = %d, want 795", len(wire.Issues))
	}
	if len(wire.ManualIDs) != 150 {
		t.Errorf("manual ids = %d, want 150", len(wire.ManualIDs))
	}
	if wire.Issues[0].Controller == "" || wire.Issues[0].ID == "" {
		t.Errorf("issue serialization incomplete: %+v", wire.Issues[0])
	}
}

func TestClassifyRequiresText(t *testing.T) {
	if code := run([]string{"classify"}); code != 1 {
		t.Errorf("classify without -text exit code = %d, want 1", code)
	}
}

// TestReportParallelDeterminism is the CLI half of the determinism
// contract: report -parallel 4 must emit byte-identical stdout to the
// sequential run, even with -timings (which writes to stderr only).
func TestReportParallelDeterminism(t *testing.T) {
	reportOut := func(extra ...string) string {
		var code int
		args := append([]string{"report", "-seed", "1", "-experiments", "E02,E05,E13,E14"}, extra...)
		out := capture(t, &os.Stdout, func() { code = run(args) })
		if code != 0 {
			t.Fatalf("%v exit code = %d", args, code)
		}
		return out
	}
	seq := reportOut("-parallel", "1")
	par := reportOut("-parallel", "4", "-timings")
	if seq != par {
		t.Errorf("parallel stdout diverged from sequential:\n--- seq ---\n%s--- par ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "=== E02") || !strings.Contains(seq, "=== E14") {
		t.Errorf("report output missing selected experiments:\n%s", seq)
	}
}

func TestReportTimingsOnStderr(t *testing.T) {
	var code int
	errOut := capture(t, &os.Stderr, func() {
		_ = capture(t, &os.Stdout, func() {
			code = run([]string{"report", "-seed", "1", "-experiments", "E02", "-timings"})
		})
	})
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	for _, frag := range []string{"1 experiments in", "Per-experiment timings", "Slowest", "inserts refused"} {
		if !strings.Contains(errOut, frag) {
			t.Errorf("-timings stderr missing %q:\n%s", frag, errOut)
		}
	}
}

func TestReportUnknownExperimentFails(t *testing.T) {
	var code int
	errOut := capture(t, &os.Stderr, func() {
		code = run([]string{"report", "-experiments", "E99"})
	})
	if code != 1 {
		t.Errorf("unknown id exit code = %d, want 1", code)
	}
	if !strings.Contains(errOut, "E99") {
		t.Errorf("error should name the unknown id:\n%s", errOut)
	}
}

func TestChecksSummaryLine(t *testing.T) {
	var code int
	out := capture(t, &os.Stdout, func() {
		code = run([]string{"checks", "-seed", "1", "-experiments", "E02,E05,E14", "-parallel", "2"})
	})
	if code != 0 {
		t.Fatalf("checks exit code = %d\n%s", code, out)
	}
	if !strings.Contains(out, "3 experiments: 3 passed, 0 failed, 0 errored") {
		t.Errorf("checks output missing the per-experiment summary:\n%s", out)
	}
}

// checks takes -ablations as experiments does, and an ablation ID
// selects that ablation's checks.
func TestChecksAblations(t *testing.T) {
	var code int
	out := capture(t, &os.Stdout, func() {
		code = run([]string{"checks", "-seed", "1", "-ablations", "-experiments", "A07", "-parallel", "1"})
	})
	if code != 0 {
		t.Fatalf("checks -ablations exit code = %d\n%s", code, out)
	}
	for _, frag := range []string{"A07", "monitor alone builds a complete model",
		"1 experiments: 1 passed, 0 failed, 0 errored"} {
		if !strings.Contains(out, frag) {
			t.Errorf("checks -ablations -experiments A07 output missing %q:\n%s", frag, out)
		}
	}
}

func TestExperimentsSubcommandSelection(t *testing.T) {
	out := filepath.Join(t.TempDir(), "experiments.md")
	code := run([]string{"experiments", "-seed", "1", "-experiments", "E02,A06",
		"-parallel", "2", "-out", out})
	if code != 0 {
		t.Fatalf("experiments exit code = %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, frag := range []string{"## E02", "## A06", "0 failed"} {
		if !strings.Contains(body, frag) {
			t.Errorf("experiments output missing %q:\n%s", frag, body)
		}
	}
	if strings.Contains(body, "## E01") {
		t.Error("unselected experiment rendered")
	}
}

// TestExperimentsWorkersDeterminism is the CLI half of the in-
// experiment parallelism contract: -workers N must emit byte-identical
// stdout to -workers 1 for the NLP experiments whose internals fan out
// onto the pool.
func TestExperimentsWorkersDeterminism(t *testing.T) {
	if raceEnabled {
		t.Skip("two full E09 runs are too slow under -race; suite and study tests cover the contract")
	}
	experimentsOut := func(workers string) string {
		var code int
		args := []string{"experiments", "-seed", "1", "-experiments", "E09,A02", "-workers", workers}
		out := capture(t, &os.Stdout, func() { code = run(args) })
		if code != 0 {
			t.Fatalf("%v exit code = %d", args, code)
		}
		return out
	}
	serial := experimentsOut("1")
	parallel := experimentsOut("4")
	if serial != parallel {
		t.Errorf("-workers 4 stdout diverged from -workers 1:\n--- workers=1 ---\n%s--- workers=4 ---\n%s",
			serial, parallel)
	}
	if !strings.Contains(serial, "## E09") || !strings.Contains(serial, "## A02") {
		t.Errorf("experiments output missing selected ids:\n%s", serial)
	}
}

// TestMineRoundTrip drives the resumable miner end to end against the
// in-process simulators: a first run mines the full seed corpus into
// the state directory, a second run without -resume is refused, and a
// -resume run restores everything from disk without refetching.
func TestMineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	out := filepath.Join(dir, "corpus.json")

	var code int
	stdout := capture(t, &os.Stdout, func() {
		code = run([]string{"mine", "-seed", "1", "-state-dir", state, "-out", out})
	})
	if code != 0 {
		t.Fatalf("mine exit code = %d", code)
	}
	if !strings.Contains(stdout, "mined 795 issues (544 jira + 251 github fetched, 0 restored)") {
		t.Errorf("mine stdout = %q", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Issues []json.RawMessage `json:"issues"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Issues) != 795 {
		t.Errorf("exported issues = %d, want 795", len(wire.Issues))
	}

	// The state dir is owned by the finished run: without -resume the
	// miner must refuse to touch it rather than silently restart.
	stderr := capture(t, &os.Stderr, func() {
		code = run([]string{"mine", "-seed", "1", "-state-dir", state})
	})
	if code != 1 || !strings.Contains(stderr, "-resume") {
		t.Errorf("re-mine without -resume: code = %d, stderr = %q", code, stderr)
	}

	// -resume restores the corpus from disk; the trackers have nothing
	// new, so the run is a pure restore.
	stdout = capture(t, &os.Stdout, func() {
		code = run([]string{"mine", "-seed", "1", "-state-dir", state, "-resume"})
	})
	if code != 0 {
		t.Fatalf("resume exit code = %d", code)
	}
	if !strings.Contains(stdout, "mined 795 issues (0 jira + 0 github fetched, 795 restored)") {
		t.Errorf("resume stdout = %q", stdout)
	}
}

func TestMineRequiresStateDir(t *testing.T) {
	var code int
	stderr := capture(t, &os.Stderr, func() {
		code = run([]string{"mine"})
	})
	if code != 1 || !strings.Contains(stderr, "-state-dir") {
		t.Errorf("mine without -state-dir: code = %d, stderr = %q", code, stderr)
	}
}

// TestProfileFlagsWriteFiles covers -cpuprofile/-memprofile: both
// files must exist and be non-empty after a run.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var code int
	_ = capture(t, &os.Stdout, func() {
		code = run([]string{"checks", "-seed", "1", "-experiments", "E02",
			"-cpuprofile", cpu, "-memprofile", mem})
	})
	if code != 0 {
		t.Fatalf("checks with profiles exit code = %d", code)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
