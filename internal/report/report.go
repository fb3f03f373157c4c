// Package report renders the study's tables and figure series as
// aligned ASCII tables and CSV — the output layer shared by the CLI
// tools and the benchmark harness that regenerates each of the paper's
// artifacts.
package report

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sdnbugs/internal/stats"
)

// Table is a simple column-aligned table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// ErrShape is returned when a row's width differs from the header's.
var ErrShape = errors.New("report: row width mismatch")

// AddRow appends a row, validating its width.
func (t *Table) AddRow(cells ...string) error {
	if len(t.Headers) > 0 && len(cells) != len(t.Headers) {
		return fmt.Errorf("%w: %d cells vs %d headers", ErrShape, len(cells), len(t.Headers))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("## " + t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteString("\n")
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		total := 0
		for _, wd := range widths {
			total += wd + 2
		}
		b.WriteString(strings.Repeat("-", total) + "\n")
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderString renders the table to a string.
func (t *Table) RenderString() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// CSV writes the table as comma-separated values (quoting cells that
// contain commas or quotes).
func (t *Table) CSV(w io.Writer) error {
	writeLine := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			out[i] = c
		}
		_, err := io.WriteString(w, strings.Join(out, ",")+"\n")
		return err
	}
	if len(t.Headers) > 0 {
		if err := writeLine(t.Headers); err != nil {
			return err
		}
	}
	for _, row := range t.Rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}

// Pct formats a fraction as a percentage with one decimal.
func Pct(f float64) string {
	return strconv.FormatFloat(f*100, 'f', 1, 64) + "%"
}

// F2 formats a float with two decimals.
func F2(f float64) string {
	return strconv.FormatFloat(f, 'f', 2, 64)
}

// Series is a named (x, y) curve, e.g. one CDF of Figure 7.
type Series struct {
	Name   string
	Points []stats.Point
}

// SeriesTable lays out multiple series as a long-format table
// (series, x, y) ready for plotting.
func SeriesTable(title string, series []Series) *Table {
	t := &Table{Title: title, Headers: []string{"series", "x", "y"}}
	for _, s := range series {
		for _, p := range s.Points {
			_ = t.AddRow(s.Name, F2(p.X), F2(p.Y))
		}
	}
	return t
}

// CDFSeries samples an ECDF into a plottable series.
func CDFSeries(name string, e *stats.ECDF, points int) Series {
	return Series{Name: name, Points: e.Points(points)}
}

// Check is one paper-vs-measured comparison row for EXPERIMENTS.md.
type Check struct {
	Artifact string
	Metric   string
	Paper    string
	Measured string
	// Holds reports whether the measured value preserves the paper's
	// claim (shape, ordering, or value within tolerance).
	Holds bool
}

// ShareWithin checks a measured share against the paper's: Paper is
// Pct(paper), Measured is Pct(got), and the check holds when
// |got−paper| ≤ tol.
func ShareWithin(metric string, paper, got, tol float64) Check {
	return Check{Metric: metric, Paper: Pct(paper), Measured: Pct(got), Holds: Within(got, paper, tol)}
}

// CountEquals checks a measured count against the paper's exact count.
func CountEquals(metric string, paper, got int) Check {
	return Check{Metric: metric, Paper: strconv.Itoa(paper), Measured: strconv.Itoa(got), Holds: got == paper}
}

// ShareAbove checks that a measured share is strictly above bound;
// paper words the claim ("majority"), and a share equal to the bound
// does not hold.
func ShareAbove(metric, paper string, got, bound float64) Check {
	return Check{Metric: metric, Paper: paper, Measured: Pct(got), Holds: got > bound}
}

// Within reports |got−want| ≤ tol.
func Within(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// ChecksTable renders comparison rows.
func ChecksTable(title string, checks []Check) *Table {
	t := &Table{Title: title, Headers: []string{"artifact", "metric", "paper", "measured", "holds"}}
	for _, c := range checks {
		holds := "yes"
		if !c.Holds {
			holds = "NO"
		}
		_ = t.AddRow(c.Artifact, c.Metric, c.Paper, c.Measured, holds)
	}
	return t
}
