package engine

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func testRun() Run[int] {
	return Run[int]{
		Wall: 30 * time.Millisecond,
		Outcomes: []Outcome[int]{
			{ID: "E01", Title: "one", Kind: KindExperiment, Duration: 10 * time.Millisecond, Passed: 3},
			{ID: "E02", Title: "two", Kind: KindExperiment, Duration: 40 * time.Millisecond, Passed: 2, Failed: 1},
			{ID: "A01", Title: "abl", Kind: KindAblation, Duration: 10 * time.Millisecond,
				Err: errors.New("exploded")},
		},
	}
}

func TestReportCountsAndSpeedup(t *testing.T) {
	rep := NewReport(testRun())
	ok, failed, errored := rep.Counts()
	if ok != 1 || failed != 1 || errored != 1 {
		t.Errorf("Counts = %d/%d/%d, want 1/1/1", ok, failed, errored)
	}
	if rep.Serial != 60*time.Millisecond {
		t.Errorf("Serial = %v, want 60ms", rep.Serial)
	}
	if got := rep.Speedup(); got < 1.9 || got > 2.1 {
		t.Errorf("Speedup = %v, want ~2.0", got)
	}
}

func TestReportSlowestN(t *testing.T) {
	rep := NewReport(testRun())
	slow := rep.SlowestN(2)
	if len(slow) != 2 || slow[0].ID != "E02" {
		t.Fatalf("SlowestN(2) = %v, want E02 first", slow)
	}
	// Ties keep submission order: E01 before A01.
	if slow[1].ID != "E01" {
		t.Errorf("SlowestN(2)[1] = %s, want E01", slow[1].ID)
	}
	// n larger than the run is clamped, and the report's own order is
	// untouched by sorting.
	if got := rep.SlowestN(99); len(got) != 3 {
		t.Errorf("SlowestN(99) = %d rows, want 3", len(got))
	}
	if rep.Timings[0].ID != "E01" {
		t.Errorf("Timings reordered: %v", rep.Timings)
	}
}

func TestReportStatusesAndFailures(t *testing.T) {
	rep := NewReport(testRun())
	want := []string{"ok", "FAIL", "ERROR"}
	for i, tm := range rep.Timings {
		if tm.Status() != want[i] {
			t.Errorf("Timings[%d].Status = %q, want %q", i, tm.Status(), want[i])
		}
	}
	// The failing rows carry what went wrong from their outcomes.
	if tm := rep.Timings[1]; tm.Passed != 2 || tm.Failed != 1 {
		t.Errorf("E02 checks = %d/%d, want 2 passed, 1 failed", tm.Passed, tm.Failed)
	}
	if err := rep.Timings[2].Err; err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Errorf("A01 err = %v, want the experiment's error", err)
	}
}

func TestReportSummaryAndTables(t *testing.T) {
	rep := NewReport(testRun())
	sum := rep.Summary()
	for _, frag := range []string{"3 experiments", "1 ok", "1 failed checks", "1 errored", "2.0x"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("Summary %q missing %q", sum, frag)
		}
	}
	tt := rep.TimingTable().RenderString()
	for _, frag := range []string{"E01", "E02", "A01", "ablation", "ERROR", "3/3", "2/3"} {
		if !strings.Contains(tt, frag) {
			t.Errorf("TimingTable missing %q:\n%s", frag, tt)
		}
	}
	st := rep.SlowestTable(2).RenderString()
	if !strings.Contains(st, "E02") || !strings.Contains(st, "66.7%") {
		t.Errorf("SlowestTable should attribute 40/60ms to E02:\n%s", st)
	}
}

func TestReportZeroWall(t *testing.T) {
	rep := NewReport(Run[int]{})
	if rep.Speedup() != 0 {
		t.Errorf("Speedup on empty run = %v, want 0", rep.Speedup())
	}
	if got := rep.SlowestTable(3).RenderString(); got == "" {
		t.Error("empty SlowestTable should still render a title")
	}
}
