package burn

import (
	"math"
	"testing"
	"time"

	"sdnbugs/internal/vcs"
)

func TestClassifyFile(t *testing.T) {
	tests := []struct {
		path string
		want Subsystem
	}{
		{"faucet/config_parser.py", Configuration},
		{"etc/faucet/faucet.yaml", Configuration},
		{"faucet/acl.py", Configuration},
		{"faucet/valve.py", NetworkFunctionality},
		{"faucet/vlan.py", NetworkFunctionality},
		{"faucet/valve_route.py", NetworkFunctionality},
		{"requirements.txt", ExternalAbstraction},
		{"faucet/gauge_influx.py", ExternalAbstraction},
		{"setup.py", ExternalAbstraction},
		{"README.md", SubsystemUnknown},
	}
	for _, tt := range tests {
		if got := ClassifyFile(tt.path); got != tt.want {
			t.Errorf("ClassifyFile(%q) = %v, want %v", tt.path, got, tt.want)
		}
	}
}

func TestClassifyCommitMajority(t *testing.T) {
	c := vcs.Commit{Files: []string{"faucet/valve.py", "faucet/vlan.py", "requirements.txt"}}
	if got := ClassifyCommit(c); got != NetworkFunctionality {
		t.Errorf("majority = %v", got)
	}
	if got := ClassifyCommit(vcs.Commit{Files: []string{"README.md"}}); got != SubsystemUnknown {
		t.Errorf("unknown files = %v", got)
	}
}

func TestDistributionFigure11(t *testing.T) {
	h := vcs.GenerateFaucet(1)
	dist, err := Distribution(h)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 11: A 38 %, B 35 %, C 27 %.
	wants := map[Subsystem]float64{
		Configuration:        0.38,
		NetworkFunctionality: 0.35,
		ExternalAbstraction:  0.27,
	}
	var sum float64
	for s, want := range wants {
		if math.Abs(dist[s]-want) > 0.03 {
			t.Errorf("%v = %.3f, want ≈ %.2f", s, dist[s], want)
		}
		sum += dist[s]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %v", sum)
	}
	if _, err := Distribution(nil); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
}

func TestCommitsPerReleaseFigure10(t *testing.T) {
	schedule := []int{4200, 3900, 3300, 2800, 2400, 2100, 2000, 1950}
	h, releases, err := vcs.GenerateONOS(schedule, time.Time{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CommitsPerRelease(h, releases)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(schedule) {
		t.Fatalf("got %d windows", len(got))
	}
	for i, want := range schedule {
		if got[i] != want {
			t.Errorf("release %d: %d commits, want %d", i, got[i], want)
		}
	}
	// The trend declines (the paper's observation).
	if !(got[len(got)-1] < got[0]) {
		t.Error("commit counts should decline")
	}
	if _, err := CommitsPerRelease(h, nil); err == nil {
		t.Error("want error for no releases")
	}
	if _, err := CommitsPerRelease(&vcs.History{}, releases); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
}

func TestDependencyBurnTable4(t *testing.T) {
	h := vcs.GenerateFaucet(3)
	table, err := BurnDownTable(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != len(vcs.FaucetDependencies()) {
		t.Fatalf("rows = %d", len(table))
	}
	// Ordered descending: ryu (28) first, then chewie (19).
	if table[0].Dependency != "ryu" || table[0].Changes != 28 {
		t.Errorf("top row = %+v, want ryu/28", table[0])
	}
	if table[1].Dependency != "chewie" || table[1].Changes != 19 {
		t.Errorf("second row = %+v, want chewie/19", table[1])
	}
	want := map[string]int{}
	for _, d := range vcs.FaucetDependencies() {
		want[d.Name] = d.Changes
	}
	for _, row := range table {
		if want[row.Dependency] != row.Changes {
			t.Errorf("%s = %d, want %d", row.Dependency, row.Changes, want[row.Dependency])
		}
	}
	if _, err := DependencyBurn(nil); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
}
