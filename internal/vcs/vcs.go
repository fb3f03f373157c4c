// Package vcs models a git-like commit history and generates the
// synthetic FAUCET history the burn analysis of §VI-B runs over: the
// subsystem split of Figure 11 (configuration 38 %, network
// functionality 35 %, external abstraction 27 %) and the dependency
// version-change counts of Table IV are calibration targets realized
// as actual commits touching actual paths.
package vcs

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// DepBump records a dependency version change carried by a commit.
type DepBump struct {
	Dep  string `json:"dep"`
	From string `json:"from"`
	To   string `json:"to"`
}

// Commit is one history entry.
type Commit struct {
	Hash    string    `json:"hash"`
	Time    time.Time `json:"time"`
	Author  string    `json:"author"`
	Message string    `json:"message"`
	Files   []string  `json:"files"`
	// Bump is non-nil for dependency-update commits.
	Bump *DepBump `json:"bump,omitempty"`
}

// History is an ordered commit log (oldest first).
type History struct {
	Repo    string
	Commits []Commit
}

// ErrEmptyHistory is returned by analyses over empty histories.
var ErrEmptyHistory = errors.New("vcs: empty history")

// Span returns the first and last commit times.
func (h *History) Span() (first, last time.Time, err error) {
	if len(h.Commits) == 0 {
		return time.Time{}, time.Time{}, ErrEmptyHistory
	}
	return h.Commits[0].Time, h.Commits[len(h.Commits)-1].Time, nil
}

// FaucetDependency describes one external dependency of the FAUCET
// controller and how many version changes it saw (Table IV).
type FaucetDependency struct {
	Name        string
	Changes     int
	Description string
}

// FaucetDependencies returns Table IV's burn-down targets.
func FaucetDependencies() []FaucetDependency {
	return []FaucetDependency{
		{Name: "ryu", Changes: 28, Description: "component-based SDN framework"},
		{Name: "chewie", Changes: 19, Description: "802.1X standard implementation"},
		{Name: "prometheus_client", Changes: 8, Description: "monitoring system"},
		{Name: "pyyaml", Changes: 6, Description: "YAML parser"},
		{Name: "eventlet", Changes: 5, Description: "networking library"},
		{Name: "beka", Changes: 5, Description: "BGP speaker"},
		{Name: "msgpack", Changes: 2, Description: "binary serialization"},
		{Name: "influxdb", Changes: 1, Description: "time series database"},
		{Name: "networkx", Changes: 1, Description: "network analysis"},
		{Name: "pbr", Changes: 1, Description: "setuptools packaging"},
		{Name: "pytricia", Changes: 1, Description: "IP address lookup"},
	}
}

// File pools per subsystem (Figure 11's A/B/C split).
var (
	configFiles = []string{
		"faucet/config_parser.py", "faucet/conf.py", "faucet/config_parser_util.py",
		"faucet/acl.py", "faucet/vlan_conf.py", "etc/faucet/faucet.yaml",
	}
	networkFiles = []string{
		"faucet/valve.py", "faucet/valve_switch.py", "faucet/valve_route.py",
		"faucet/vlan.py", "faucet/valve_flood.py", "faucet/faucet_dot1x.py",
		"faucet/valve_table.py", "faucet/router.py",
	}
	externalFiles = []string{
		"faucet/gauge.py", "faucet/gauge_influx.py", "faucet/prom_client.py",
		"requirements.txt", "faucet/valve_ryuapp.py", "setup.py",
	}
)

// The synthetic FAUCET history's shape: faucetCommits commits over
// faucetDays days from faucetStart.
const (
	faucetCommits = 3000
	faucetDays    = 1500
)

var faucetStart = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)

// GenerateFaucet synthesizes the FAUCET history from seed: commits
// split across the three subsystems per Figure 11, with Table IV's
// dependency bumps embedded as requirements.txt commits (they count
// toward the external abstraction share).
func GenerateFaucet(seed int64) *History {
	rng := rand.New(rand.NewSource(seed))

	deps := FaucetDependencies()
	var bumps []Commit
	for _, d := range deps {
		ver := 1
		for i := 0; i < d.Changes; i++ {
			from := fmt.Sprintf("%d.%d.0", 1+ver/10, ver%10)
			ver++
			to := fmt.Sprintf("%d.%d.0", 1+ver/10, ver%10)
			bumps = append(bumps, Commit{
				Author:  pick(rng, authors),
				Message: fmt.Sprintf("build: bump %s from %s to %s", d.Name, from, to),
				Files:   []string{"requirements.txt"},
				Bump:    &DepBump{Dep: d.Name, From: from, To: to},
			})
		}
	}
	// Remaining commits by subsystem quota: config 38 %, network 35 %,
	// external 27 % (bumps already count as external).
	nConfig := int(0.38 * faucetCommits)
	nNetwork := int(0.35 * faucetCommits)
	nExternal := faucetCommits - nConfig - nNetwork - len(bumps)

	var commits []Commit
	add := func(n int, files []string, verb string) {
		for i := 0; i < n; i++ {
			nf := 1 + rng.Intn(3)
			cf := make([]string, 0, nf)
			for j := 0; j < nf; j++ {
				cf = append(cf, pick(rng, files))
			}
			commits = append(commits, Commit{
				Author:  pick(rng, authors),
				Message: fmt.Sprintf("%s %s", verb, cf[0]),
				Files:   cf,
			})
		}
	}
	add(nConfig, configFiles, "config: fix parsing in")
	add(nNetwork, networkFiles, "valve: improve forwarding in")
	add(nExternal, externalFiles, "gauge: adapt external interface in")
	commits = append(commits, bumps...)

	// Shuffle then timestamp monotonically across the span.
	rng.Shuffle(len(commits), func(i, j int) { commits[i], commits[j] = commits[j], commits[i] })
	span := time.Duration(faucetDays) * 24 * time.Hour
	for i := range commits {
		frac := float64(i) / float64(len(commits))
		jitter := time.Duration(rng.Int63n(int64(6 * time.Hour)))
		commits[i].Time = faucetStart.Add(time.Duration(frac*float64(span)) + jitter)
		commits[i].Hash = fmt.Sprintf("%08x%08x", rng.Uint32(), rng.Uint32())
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i].Time.Before(commits[j].Time) })
	return &History{Repo: "faucet", Commits: commits}
}

// GenerateONOS synthesizes an ONOS history whose per-release commit
// counts follow the given (version, commits) schedule — Figure 10's
// declining series. Releases are quarterly from start.
func GenerateONOS(commitsPerRelease []int, start time.Time, seed int64) (*History, []time.Time, error) {
	if len(commitsPerRelease) == 0 {
		return nil, nil, errors.New("vcs: no releases")
	}
	if start.IsZero() {
		start = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	rng := rand.New(rand.NewSource(seed))
	var commits []Commit
	releases := make([]time.Time, len(commitsPerRelease))
	for r, n := range commitsPerRelease {
		relStart := start.AddDate(0, 3*r, 0)
		releases[r] = relStart.AddDate(0, 3, 0) // release ships at quarter end
		for i := 0; i < n; i++ {
			offset := time.Duration(rng.Int63n(int64(90 * 24 * time.Hour)))
			commits = append(commits, Commit{
				Hash:    fmt.Sprintf("%08x%08x", rng.Uint32(), rng.Uint32()),
				Time:    relStart.Add(offset),
				Author:  pick(rng, authors),
				Message: "onos: change " + pick(rng, []string{"intent", "flow", "store", "cli", "gui"}),
				Files:   []string{"core/net/src/main/java/Something.java"},
			})
		}
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i].Time.Before(commits[j].Time) })
	return &History{Repo: "onos", Commits: commits}, releases, nil
}

var authors = []string{"alice", "bob", "carol", "dave", "erin", "frank"}

func pick(rng *rand.Rand, ss []string) string { return ss[rng.Intn(len(ss))] }
