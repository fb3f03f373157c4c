// Package smell implements the Designite-style code-smell analysis of
// §VI-A: the two architecture smells and four design smells of
// Figure 8, computed from the structural code model of
// internal/codemodel. Architecture smells capture cross-component
// degradation; design smells capture class-level degradation.
package smell

import (
	"errors"

	"sdnbugs/internal/codemodel"
)

// Kind identifies one smell.
type Kind int

// Smell kinds (Figure 8).
const (
	KindUnknown Kind = iota
	// Architecture smells.
	GodComponent
	UnstableDependency
	// Design smells.
	InsufficientModularization
	BrokenHierarchy
	HubLikeModularization
	MissingHierarchy
)

// Kinds lists every analyzed smell.
func Kinds() []Kind {
	return []Kind{
		GodComponent, UnstableDependency,
		InsufficientModularization, BrokenHierarchy,
		HubLikeModularization, MissingHierarchy,
	}
}

func (k Kind) String() string {
	switch k {
	case GodComponent:
		return "god-component"
	case UnstableDependency:
		return "unstable-dependency"
	case InsufficientModularization:
		return "insufficient-modularization"
	case BrokenHierarchy:
		return "broken-hierarchy"
	case HubLikeModularization:
		return "hub-like-modularization"
	case MissingHierarchy:
		return "missing-hierarchy"
	default:
		return "unknown"
	}
}

// Architecture reports whether the smell is architecture-level (as
// opposed to design-level).
func (k Kind) Architecture() bool {
	return k == GodComponent || k == UnstableDependency
}

// Finding is one detected smell instance.
type Finding struct {
	Kind Kind
	// Subject is the offending package (architecture smells) or class
	// (design smells).
	Subject string
	// Detail is a human-readable explanation.
	Detail string
}

// Report is the analysis result for one codebase snapshot.
type Report struct {
	Version  string
	Findings []Finding
}

// Count returns the number of findings of the given kind.
func (r *Report) Count(k Kind) int {
	n := 0
	for _, f := range r.Findings {
		if f.Kind == k {
			n++
		}
	}
	return n
}

// Counts returns the per-kind finding counts.
func (r *Report) Counts() map[Kind]int {
	out := make(map[Kind]int, len(Kinds()))
	for _, k := range Kinds() {
		out[k] = r.Count(k)
	}
	return out
}

// ErrNilCodebase is returned for a nil input.
var ErrNilCodebase = errors.New("smell: nil codebase")

// Analyze computes every smell over the codebase.
func Analyze(cb *codemodel.Codebase) (*Report, error) {
	if cb == nil {
		return nil, ErrNilCodebase
	}
	r := &Report{Version: cb.Version}
	r.Findings = append(r.Findings, godComponents(cb)...)
	unstable, err := unstableDependencies(cb)
	if err != nil {
		return nil, err
	}
	r.Findings = append(r.Findings, unstable...)
	r.Findings = append(r.Findings, designSmells(cb)...)
	return r, nil
}

// godComponents flags packages whose size impairs modularity: class
// count above codemodel.GodComponentClasses or very large LOC.
func godComponents(cb *codemodel.Codebase) []Finding {
	var out []Finding
	for _, p := range cb.Packages() {
		if len(p.Classes) > codemodel.GodComponentClasses || p.LOC() > 27000 {
			out = append(out, Finding{
				Kind:    GodComponent,
				Subject: p.Name,
				Detail:  "oversized component impairs modularity",
			})
		}
	}
	return out
}

// unstableDependencies flags every dependency edge that violates the
// Stable Dependencies Principle: the depended-upon package is less
// stable (higher instability) than the depender.
func unstableDependencies(cb *codemodel.Codebase) ([]Finding, error) {
	var out []Finding
	instability := map[string]float64{}
	for _, p := range cb.Packages() {
		i, err := cb.Instability(p.Name)
		if err != nil {
			return nil, err
		}
		instability[p.Name] = i
	}
	for _, p := range cb.Packages() {
		for _, dep := range p.DependsOn {
			di, ok := instability[dep]
			if !ok {
				continue // dangling edge: not this smell's business
			}
			if di > instability[p.Name] {
				out = append(out, Finding{
					Kind:    UnstableDependency,
					Subject: p.Name,
					Detail:  "depends on less stable package " + dep,
				})
			}
		}
	}
	return out, nil
}

// designSmells computes the four class-level smells.
func designSmells(cb *codemodel.Codebase) []Finding {
	var out []Finding
	for _, c := range cb.Classes() {
		if len(c.Methods) > codemodel.InsufficientMethods || c.LOC() > 1000 {
			out = append(out, Finding{
				Kind:    InsufficientModularization,
				Subject: c.Package + "." + c.Name,
				Detail:  "class too large or complex to be one abstraction",
			})
		}
		if c.SuperType != "" && !c.UsesSuperFeatures {
			out = append(out, Finding{
				Kind:    BrokenHierarchy,
				Subject: c.Package + "." + c.Name,
				Detail:  "no IS-A relation with supertype " + c.SuperType,
			})
		}
		if c.FanIn > codemodel.HubFan && c.FanOut > codemodel.HubFan {
			out = append(out, Finding{
				Kind:    HubLikeModularization,
				Subject: c.Package + "." + c.Name,
				Detail:  "class is a dependency hub",
			})
		}
		if c.TypeSwitches > codemodel.MissingHierarchySwitches {
			out = append(out, Finding{
				Kind:    MissingHierarchy,
				Subject: c.Package + "." + c.Name,
				Detail:  "conditional type logic should be a hierarchy",
			})
		}
	}
	return out
}

// TrendPoint is one release's smell counts (a Figure 8 series point).
type TrendPoint struct {
	Version string
	Counts  map[Kind]int
	Classes int
	Commits int
}

// Trend analyzes a release train, producing the Figure 8 series.
func Trend(profiles []codemodel.ReleaseProfile, seed int64) ([]TrendPoint, error) {
	out := make([]TrendPoint, 0, len(profiles))
	for i, p := range profiles {
		cb := codemodel.Generate(p, seed+int64(i)*17)
		rep, err := Analyze(cb)
		if err != nil {
			return nil, err
		}
		out = append(out, TrendPoint{
			Version: p.Version,
			Counts:  rep.Counts(),
			Classes: cb.ClassCount(),
			Commits: p.Commits,
		})
	}
	return out, nil
}
