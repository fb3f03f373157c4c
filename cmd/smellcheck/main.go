// Command smellcheck runs the software-engineering analyses of §VI:
// the code-smell trend across ONOS releases (Figure 8), the commit
// burn analysis (Figures 10 and 11, Table IV), and the dependency
// vulnerability scan (§V-A).
//
//	smellcheck -seed 1 [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sdnbugs/internal/burn"
	"sdnbugs/internal/codemodel"
	"sdnbugs/internal/depscan"
	"sdnbugs/internal/report"
	"sdnbugs/internal/smell"
	"sdnbugs/internal/vcs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "smellcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 1, "generation seed")
	csv := flag.Bool("csv", false, "emit CSV")
	flag.Parse()

	emit := func(t *report.Table) error {
		if *csv {
			if err := t.CSV(os.Stdout); err != nil {
				return err
			}
		} else if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}

	// Figure 8: smell trend.
	pts, err := smell.Trend(codemodel.ONOSReleases(), *seed)
	if err != nil {
		return err
	}
	smellTbl := &report.Table{Title: "Code smells across ONOS releases (Figure 8)",
		Headers: []string{"version", "god-component", "unstable-dep", "insufficient-mod",
			"broken-hierarchy", "hub-like", "missing-hierarchy", "classes", "commits"}}
	for _, p := range pts {
		if err := smellTbl.AddRow(p.Version,
			fmt.Sprint(p.Counts[smell.GodComponent]),
			fmt.Sprint(p.Counts[smell.UnstableDependency]),
			fmt.Sprint(p.Counts[smell.InsufficientModularization]),
			fmt.Sprint(p.Counts[smell.BrokenHierarchy]),
			fmt.Sprint(p.Counts[smell.HubLikeModularization]),
			fmt.Sprint(p.Counts[smell.MissingHierarchy]),
			fmt.Sprint(p.Classes), fmt.Sprint(p.Commits)); err != nil {
			return err
		}
	}
	if err := emit(smellTbl); err != nil {
		return err
	}

	// Figure 11 + Table IV: FAUCET burn analysis.
	h := vcs.GenerateFaucet(*seed)
	dist, err := burn.Distribution(h)
	if err != nil {
		return err
	}
	distTbl := &report.Table{Title: "FAUCET commits by subsystem (Figure 11)",
		Headers: []string{"subsystem", "share"}}
	for _, s := range burn.Subsystems() {
		if err := distTbl.AddRow(s.String(), report.Pct(dist[s])); err != nil {
			return err
		}
	}
	if err := emit(distTbl); err != nil {
		return err
	}

	table, err := burn.BurnDownTable(h)
	if err != nil {
		return err
	}
	depTbl := &report.Table{Title: "FAUCET dependency burn-down (Table IV)",
		Headers: []string{"dependency", "version changes"}}
	for _, row := range table {
		if err := depTbl.AddRow(row.Dependency, fmt.Sprint(row.Changes)); err != nil {
			return err
		}
	}
	if err := emit(depTbl); err != nil {
		return err
	}

	// Figure 10: ONOS commits per release.
	var schedule []int
	var versions []string
	for _, p := range codemodel.ONOSReleases() {
		schedule = append(schedule, p.Commits)
		versions = append(versions, p.Version)
	}
	onosHist, releases, err := vcs.GenerateONOS(schedule, time.Time{}, *seed)
	if err != nil {
		return err
	}
	counts, err := burn.CommitsPerRelease(onosHist, releases)
	if err != nil {
		return err
	}
	commitTbl := &report.Table{Title: "ONOS commits per release (Figure 10)",
		Headers: []string{"version", "commits"}}
	for i, v := range versions {
		if err := commitTbl.AddRow(v, fmt.Sprint(counts[i])); err != nil {
			return err
		}
	}
	if err := emit(commitTbl); err != nil {
		return err
	}

	// §V-A: dependency vulnerabilities.
	trend, err := depscan.VulnerabilityTrend(depscan.ONOSManifests(), depscan.BuiltinDB())
	if err != nil {
		return err
	}
	vulnTbl := &report.Table{Title: "ONOS dependency vulnerabilities (§V-A)",
		Headers: []string{"version", "dependencies", "findings", "critical"}}
	for _, p := range trend {
		if err := vulnTbl.AddRow(p.Version, fmt.Sprint(p.Deps),
			fmt.Sprint(p.Findings), fmt.Sprint(p.Critical)); err != nil {
			return err
		}
	}
	return emit(vulnTbl)
}
