package smell

import (
	"testing"

	"sdnbugs/internal/codemodel"
)

func TestAnalyzeNil(t *testing.T) {
	if _, err := Analyze(nil); err != ErrNilCodebase {
		t.Errorf("want ErrNilCodebase, got %v", err)
	}
}

func TestHandBuiltSmells(t *testing.T) {
	cb := codemodel.NewCodebase("toy", "0.1")

	// A god component: > threshold classes.
	giant := cb.AddPackage("giant")
	for i := 0; i < codemodel.GodComponentClasses+1; i++ {
		giant.Classes = append(giant.Classes, &codemodel.Class{
			Name: "C", Package: "giant", UsesSuperFeatures: true,
			Methods: []codemodel.Method{{Name: "m", LOC: 10}},
		})
	}
	// A healthy package holding the smelly classes.
	pkg := cb.AddPackage("app")
	bloated := &codemodel.Class{Name: "Bloat", Package: "app", UsesSuperFeatures: true}
	for i := 0; i < codemodel.InsufficientMethods+1; i++ {
		bloated.Methods = append(bloated.Methods, codemodel.Method{Name: "m", LOC: 5})
	}
	broken := &codemodel.Class{
		Name: "Run", Package: "app", SuperType: "ElectionOperation",
		UsesSuperFeatures: false,
		Methods:           []codemodel.Method{{Name: "m", LOC: 5}},
	}
	hub := &codemodel.Class{
		Name: "Hub", Package: "app", UsesSuperFeatures: true,
		FanIn: codemodel.HubFan + 1, FanOut: codemodel.HubFan + 1,
		Methods: []codemodel.Method{{Name: "m", LOC: 5}},
	}
	dispatcher := &codemodel.Class{
		Name: "Dispatch", Package: "app", UsesSuperFeatures: true,
		TypeSwitches: codemodel.MissingHierarchySwitches + 1,
		Methods:      []codemodel.Method{{Name: "m", LOC: 5}},
	}
	pkg.Classes = append(pkg.Classes, bloated, broken, hub, dispatcher)

	// One unstable dependency: stable "base" (high afferent) depends on
	// volatile "leaf".
	base := cb.AddPackage("base")
	base.Classes = append(base.Classes, &codemodel.Class{Name: "B", Package: "base", UsesSuperFeatures: true})
	leaf := cb.AddPackage("leaf")
	leaf.Classes = append(leaf.Classes, &codemodel.Class{Name: "L", Package: "leaf", UsesSuperFeatures: true})
	giant.DependsOn = append(giant.DependsOn, "base")
	pkg.DependsOn = append(pkg.DependsOn, "base")
	leaf.DependsOn = append(leaf.DependsOn, "base") // leaf: Ce=1, Ca=1 -> I=0.5
	base.DependsOn = append(base.DependsOn, "leaf") // base: Ce=1, Ca=3 -> I=0.25

	rep, err := Analyze(cb)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[Kind]int{
		GodComponent:               1,
		UnstableDependency:         1,
		InsufficientModularization: 1,
		BrokenHierarchy:            1,
		HubLikeModularization:      1,
		MissingHierarchy:           1,
	}
	for k, want := range wants {
		if got := rep.Count(k); got != want {
			t.Errorf("%v = %d, want %d (findings: %v)", k, got, want, rep.Findings)
		}
	}
	for _, f := range rep.Findings {
		if f.Kind == BrokenHierarchy && f.Subject != "app.Run" {
			t.Errorf("broken hierarchy subject = %q, want app.Run", f.Subject)
		}
	}
}

func TestGeneratedProfileIsRecovered(t *testing.T) {
	// The analyzer must recover exactly the counts the generator was
	// asked to synthesize — the round-trip check for Figure 8.
	p := codemodel.ONOSReleases()[0]
	cb := codemodel.Generate(p, 5)
	rep, err := Analyze(cb)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		kind Kind
		want int
	}{
		{GodComponent, p.GodComponents},
		{UnstableDependency, p.UnstableDeps},
		{InsufficientModularization, p.InsufficientlyModularized},
		{BrokenHierarchy, p.BrokenHierarchies},
		{HubLikeModularization, p.HubClasses},
		{MissingHierarchy, p.MissingHierarchies},
	}
	for _, c := range checks {
		if got := rep.Count(c.kind); got != c.want {
			t.Errorf("%v = %d, want %d", c.kind, got, c.want)
		}
	}
}

func TestTrendFigure8(t *testing.T) {
	pts, err := Trend(codemodel.ONOSReleases(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("got %d trend points", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]

	// Commits decline across the train (Figure 10).
	if !(last.Commits < first.Commits) {
		t.Error("commits should decline across releases")
	}
	// God component stays roughly constant.
	if diff := last.Counts[GodComponent] - first.Counts[GodComponent]; diff < -2 || diff > 2 {
		t.Errorf("god component drifted by %d; should be ~constant", diff)
	}
	// Unstable dependencies decline steadily.
	for i := 1; i < len(pts); i++ {
		if pts[i].Counts[UnstableDependency] > pts[i-1].Counts[UnstableDependency] {
			t.Errorf("unstable deps rose at %s", pts[i].Version)
		}
	}
	// Design smells spike across 1.12–1.14 ...
	if !(pts[2].Counts[InsufficientModularization] > pts[0].Counts[InsufficientModularization]) {
		t.Error("insufficient modularization should spike by 1.14")
	}
	if !(pts[2].Counts[BrokenHierarchy] > pts[0].Counts[BrokenHierarchy]) {
		t.Error("broken hierarchy should spike by 1.14")
	}
	// ... then broken hierarchy recedes (ONOS-6594) while insufficient
	// modularization plateaus.
	if !(last.Counts[BrokenHierarchy] < pts[2].Counts[BrokenHierarchy]) {
		t.Error("broken hierarchy should recede after 1.14")
	}
	plateauDelta := last.Counts[InsufficientModularization] - pts[2].Counts[InsufficientModularization]
	if plateauDelta < -5 || plateauDelta > 5 {
		t.Errorf("insufficient modularization should plateau, drifted %d", plateauDelta)
	}
	// Total classes grow even though god-component count is flat — the
	// paper's "classes grow, modularity does not" observation.
	if !(last.Classes > first.Classes) {
		t.Error("class count should grow across releases")
	}
}

func TestIntentImplGrowth(t *testing.T) {
	// net.intent.impl: 49 classes at 1.12 -> 107 at 2.3 (§VI-A).
	rels := codemodel.ONOSReleases()
	firstCB := codemodel.Generate(rels[0], 1)
	lastCB := codemodel.Generate(rels[len(rels)-1], 1)
	fp, err := firstCB.Package("net.intent.impl")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := lastCB.Package("net.intent.impl")
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Classes) != 49 || len(lp.Classes) != 107 {
		t.Errorf("intent.impl classes %d -> %d, want 49 -> 107", len(fp.Classes), len(lp.Classes))
	}
}

func TestKindClassification(t *testing.T) {
	if !GodComponent.Architecture() || !UnstableDependency.Architecture() {
		t.Error("architecture smells misclassified")
	}
	for _, k := range []Kind{InsufficientModularization, BrokenHierarchy, HubLikeModularization, MissingHierarchy} {
		if k.Architecture() {
			t.Errorf("%v is a design smell", k)
		}
	}
	for _, k := range Kinds() {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := codemodel.ONOSReleases()[3]
	a := codemodel.Generate(p, 9)
	b := codemodel.Generate(p, 9)
	if a.ClassCount() != b.ClassCount() {
		t.Error("same seed should give identical codebases")
	}
	ra, err := Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Analyze(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds() {
		if ra.Count(k) != rb.Count(k) {
			t.Errorf("%v differs across same-seed runs", k)
		}
	}
}
