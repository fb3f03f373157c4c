package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which declares
// the benchmark, and the metrics this program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside perfbench: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
			return
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", kind, i, want[i], got[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	known := make([]string, 0, len(workloads))
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(names)
	sort.Strings(known)
	if !slices.Equal(names, known) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, known)
	}
}

func TestDigestRecordedPerSeed(t *testing.T) {
	dir := t.TempDir()
	if err := checkDigest(dir, 3, "abc"); err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(dir, 3, "abc"); err != nil {
		t.Errorf("same digest rejected: %v", err)
	}
	if err := checkDigest(dir, 3, "abd"); err == nil {
		t.Error("changed digest accepted")
	}
	if err := checkDigest(dir, 4, "abd"); err != nil {
		t.Errorf("another seed's digest rejected: %v", err)
	}
}
