package report

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"sdnbugs/internal/stats"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "demo", Headers: []string{"name", "value"}}
	if err := tbl.AddRow("alpha", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddRow("b", "22222"); err != nil {
		t.Fatal(err)
	}
	out := tbl.RenderString()
	if !strings.Contains(out, "## demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "name") || !strings.Contains(out, "22222") {
		t.Errorf("render incomplete:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + rule + 2 rows.
	if len(lines) != 5 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestAddRowShape(t *testing.T) {
	tbl := &Table{Headers: []string{"a", "b"}}
	if err := tbl.AddRow("only-one"); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
}

func TestCSV(t *testing.T) {
	tbl := &Table{Headers: []string{"name", "note"}}
	_ = tbl.AddRow("x", "plain")
	_ = tbl.AddRow("y", `with,comma and "quote"`)
	var b strings.Builder
	if err := tbl.CSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, "name,note\n") {
		t.Error("missing header line")
	}
	if !strings.Contains(got, `"with,comma and ""quote"""`) {
		t.Errorf("quoting wrong: %s", got)
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.6133) != "61.3%" {
		t.Errorf("Pct = %s", Pct(0.6133))
	}
	if F2(1.005) != "1.00" && F2(1.005) != "1.01" {
		t.Errorf("F2 = %s", F2(1.005))
	}
}

func TestSeriesTableAndCDF(t *testing.T) {
	e, err := stats.NewECDF([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	s := CDFSeries("onos-config", e, 5)
	if s.Name != "onos-config" || len(s.Points) != 5 {
		t.Fatalf("series: %+v", s)
	}
	tbl := SeriesTable("figure7", []Series{s})
	if len(tbl.Rows) != 5 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "onos-config" {
		t.Errorf("series column wrong: %v", tbl.Rows[0])
	}
}

func TestChecksTable(t *testing.T) {
	tbl := ChecksTable("exp", []Check{
		{Artifact: "E2", Metric: "det", Paper: "96%", Measured: "97.6%", Holds: true},
		{Artifact: "E9", Metric: "fix", Paper: "poor", Measured: "34%", Holds: false},
	})
	out := tbl.RenderString()
	if !strings.Contains(out, "yes") || !strings.Contains(out, "NO") {
		t.Errorf("holds column wrong:\n%s", out)
	}
}

// The constructors are pinned at their boundaries with dyadic values,
// so every difference below is exact in float64.
func TestShareWithinBoundary(t *testing.T) {
	for _, tc := range []struct {
		name      string
		paper     float64
		got       float64
		wantHolds bool
	}{
		{"equal", 0.5, 0.5, true},
		{"exactly tol above", 0.5, 0.75, true},
		{"exactly tol below", 0.5, 0.25, true},
		{"just past tol above", 0.5, math.Nextafter(0.75, 1), false},
		// One ulp of the 0.25 difference; Nextafter(0.25, 0) is half
		// that and rounds back to a difference of exactly tol.
		{"just past tol below", 0.5, 0.25 - 0x1p-54, false},
	} {
		c := ShareWithin("m", tc.paper, tc.got, 0.25)
		if c.Holds != tc.wantHolds {
			t.Errorf("%s: ShareWithin(%v, %v, 0.25).Holds = %v, want %v",
				tc.name, tc.paper, tc.got, c.Holds, tc.wantHolds)
		}
	}
	c := ShareWithin("config bugs fixed by config change", 0.25, 0.2875, 0.06)
	if c.Metric != "config bugs fixed by config change" || c.Paper != "25.0%" || c.Measured != "28.7%" {
		t.Errorf("ShareWithin text = %+v", c)
	}
	if c.Artifact != "" {
		t.Errorf("Artifact = %q; the registry stamps it, not the constructor", c.Artifact)
	}
}

func TestCountEquals(t *testing.T) {
	c := CountEquals("FAUCET critical bugs", 251, 251)
	if !c.Holds || c.Paper != "251" || c.Measured != "251" {
		t.Errorf("CountEquals(251, 251) = %+v", c)
	}
	for _, got := range []int{250, 252} {
		if c := CountEquals("m", 251, got); c.Holds || c.Measured != strconv.Itoa(got) {
			t.Errorf("CountEquals(251, %d) = %+v, want a failing check", got, c)
		}
	}
}

func TestShareAboveBoundary(t *testing.T) {
	// "majority" means strictly more than half: a share equal to the
	// bound fails.
	if c := ShareAbove("m", "majority", 0.5, 0.5); c.Holds {
		t.Error("ShareAbove(0.5, bound 0.5) holds; a share equal to its bound must fail")
	}
	if c := ShareAbove("m", "majority", math.Nextafter(0.5, 1), 0.5); !c.Holds {
		t.Error("ShareAbove just above its bound must hold")
	}
	c := ShareAbove("bugs created within 45d after a release", "bursts observed", 0.625, 0.5)
	if !c.Holds || c.Paper != "bursts observed" || c.Measured != "62.5%" {
		t.Errorf("ShareAbove text = %+v", c)
	}
}
