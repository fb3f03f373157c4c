package faultlab

// Campaign-as-validator: the acceptance gate of the automatic repair
// loop. A candidate repair is only as good as the full campaign says
// it is — the validator runs the complete supervised fault-injection
// campaign with the candidate program interposed and compares it
// against a baseline (unpatched) run on a named checklist, so a
// repair that fixes its class while breaking anything that used to
// pass is rejected. Passing requires all three: no checklist
// regression, the repaired class no longer shed, and event
// availability strictly above the shed-mode baseline (a "repair"
// that just drops the traffic buys nothing — program drops count as
// shed).

import (
	"fmt"
	"slices"

	"sdnbugs/internal/sdn"
)

// CampaignCheck is one named boolean acceptance check over a
// campaign result.
type CampaignCheck struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// SupervisedChecklist evaluates the named acceptance checks E22
// established for supervised campaigns. The list is fixed and
// ordered, so baseline and patched runs compare check-by-check.
func SupervisedChecklist(r CampaignResult) []CampaignCheck {
	shedOK := true
	for _, c := range r.ShedClasses {
		shedOK = shedOK && slices.Contains(DeterministicPoisonClasses(), c)
	}
	return []CampaignCheck{
		{Name: "no-lost-events", Pass: r.Lost == 0,
			Detail: fmt.Sprintf("%d lost", r.Lost)},
		{Name: "no-wire-kills", Pass: r.WireKills == 0,
			Detail: fmt.Sprintf("%d wire faults, %d kills", r.WireFaults, r.WireKills)},
		{Name: "final-state-running", Pass: r.FinalState == sdn.StateRunning.String(),
			Detail: r.FinalState},
		{Name: "controller-made-progress", Pass: r.Processed > 0,
			Detail: fmt.Sprintf("%d processed", r.Processed)},
		{Name: "sheds-only-deterministic-poison-classes", Pass: shedOK,
			Detail: fmt.Sprintf("shed %v", r.ShedClasses)},
	}
}

// Verdict is the validator's decision on one candidate program.
type Verdict struct {
	// Class is the shed class the candidate claims to repair ("" when
	// validating a composed program with no single target class).
	Class  string          `json:"class,omitempty"`
	Result CampaignResult  `json:"-"`
	Checks []CampaignCheck `json:"checks"`
	// Regressions names baseline-passing checks the patched run fails.
	Regressions []string `json:"regressions"`
	// ClassShed reports whether the target class was still shed in the
	// patched run — the repair did not actually clear the poison.
	ClassShed bool `json:"class_shed"`
	// ShedClasses is the patched run's shed set.
	ShedClasses []string `json:"shed_classes"`
	// BaselineAvailability/PatchedAvailability compare event
	// availability of the unpatched shed-mode baseline and the
	// patched run.
	BaselineAvailability float64 `json:"baseline_availability"`
	PatchedAvailability  float64 `json:"patched_availability"`
	// Pass is the conjunction: no regressions, class un-shed, and
	// availability strictly above shed mode.
	Pass bool `json:"pass"`
}

// Validator runs candidate programs through the full supervised
// campaign and compares them against a cached baseline run.
type Validator struct {
	cfg        CampaignConfig
	baseline   CampaignResult
	baseChecks []CampaignCheck
}

// NewValidator runs the unpatched supervised baseline once and
// returns a validator bound to it. The config's Supervised flag,
// Program, and OnShed are overridden — the baseline is always the
// plain shed-mode campaign.
func NewValidator(cfg CampaignConfig) (*Validator, error) {
	cfg = cfg.withDefaults()
	cfg.Supervised = true
	cfg.Program = nil
	cfg.OnShed = nil
	base, err := RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return &Validator{cfg: cfg, baseline: base, baseChecks: SupervisedChecklist(base)}, nil
}

// Validate runs the full campaign with prog interposed and judges it
// against the baseline. The program is cloned first, so validation
// never leaks clamp state into the caller's copy.
func (v *Validator) Validate(prog *sdn.Program, class string) (Verdict, error) {
	cfg := v.cfg
	cfg.Program = prog.Clone()
	res, err := RunCampaign(cfg)
	if err != nil {
		return Verdict{}, err
	}
	checks := SupervisedChecklist(res)
	regressions := []string{}
	for i, c := range checks {
		if v.baseChecks[i].Pass && !c.Pass {
			regressions = append(regressions, c.Name)
		}
	}
	classShed := class != "" && slices.Contains(res.ShedClasses, class)
	verdict := Verdict{
		Class:                class,
		Result:               res,
		Checks:               checks,
		Regressions:          regressions,
		ClassShed:            classShed,
		ShedClasses:          res.ShedClasses,
		BaselineAvailability: v.baseline.EventAvailability(),
		PatchedAvailability:  res.EventAvailability(),
	}
	verdict.Pass = len(regressions) == 0 && !classShed &&
		verdict.PatchedAvailability > verdict.BaselineAvailability
	return verdict, nil
}
