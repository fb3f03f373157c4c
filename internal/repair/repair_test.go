package repair

import (
	"bytes"
	"strings"
	"testing"

	"sdnbugs/internal/faultlab"
	"sdnbugs/internal/metrics"
	"sdnbugs/internal/sdn"
)

// twoRuleBase is a small valid program for grammar tests.
func twoRuleBase() *sdn.Program {
	return sdn.NewProgram(
		sdn.Rule{ID: "cfg", Priority: 5,
			Match:  sdn.Predicate{Kind: sdn.EventConfig, KeyPrefix: "multicast."},
			Action: sdn.ActRewrite, Rewrite: sdn.Rewrite{SetValue: "1"}},
		sdn.Rule{ID: "ext", Priority: 3,
			Match:  sdn.Predicate{Kind: sdn.EventExternalCall, Service: "atomix"},
			Action: sdn.ActClamp, ClampBudget: 2},
	)
}

// TestPatchApplyGrammar drives every grammar production through
// Apply, success and failure paths alike.
func TestPatchApplyGrammar(t *testing.T) {
	tests := []struct {
		name    string
		patch   Patch
		base    *sdn.Program
		wantErr bool
		check   func(t *testing.T, prog *sdn.Program)
	}{
		{
			name:  "reorder swaps priorities",
			patch: Patch{Production: ProdReorder, I: 0, J: 1},
			base:  twoRuleBase(),
			check: func(t *testing.T, prog *sdn.Program) {
				// Normalize keeps priority-descending order, so the swap
				// shows as the clamp rule now leading.
				if prog.Rules[0].ID != "ext" || prog.Rules[0].Priority != 5 {
					t.Fatalf("after reorder, rules = %+v", prog.Rules)
				}
			},
		},
		{
			name:    "reorder needs two rules",
			patch:   Patch{Production: ProdReorder},
			base:    sdn.NewProgram(),
			wantErr: true,
		},
		{
			name:  "guard strip-vlan rewrites tagged broadcasts",
			patch: Patch{Production: ProdGuard, Class: "network-event/mirror-vlan", StripVlan: true},
			check: func(t *testing.T, prog *sdn.Program) {
				ev := packetEvent(sdn.Packet{EthSrc: 1, EthDst: sdn.BroadcastMAC,
					EthType: 0x0806, VlanID: faultlab.PoisonVLAN})
				out, verdict := prog.Apply(ev)
				if verdict != sdn.VerdictRewritten {
					t.Fatalf("verdict = %v, want rewritten", verdict)
				}
				pkt, ok := sdn.PacketOf(out)
				if !ok || pkt.VlanID != 0 || !pkt.IsBroadcast() {
					t.Fatalf("rewritten frame = %+v (ok=%v)", pkt, ok)
				}
				// Untagged broadcasts pass untouched.
				if _, v := prog.Apply(packetEvent(sdn.Packet{EthSrc: 1,
					EthDst: sdn.BroadcastMAC, EthType: 0x0806})); v != sdn.VerdictPass {
					t.Fatalf("untagged broadcast verdict = %v, want pass", v)
				}
			},
		},
		{
			name:    "guard with empty rewrite",
			patch:   Patch{Production: ProdGuard, Class: "network-event/mirror-vlan"},
			wantErr: true,
		},
		{
			name:    "guard for unknown class",
			patch:   Patch{Production: ProdGuard, Class: "no-such-class", StripVlan: true},
			wantErr: true,
		},
		{
			name:  "rollback re-targets the poison prefix",
			patch: Patch{Production: ProdRollback, Class: "configuration/multicast", SetKeyPrefix: "app.quarantine."},
			check: func(t *testing.T, prog *sdn.Program) {
				out, verdict := prog.Apply(sdn.Event{Kind: sdn.EventConfig,
					Key: "multicast.group3", Value: "225"})
				if verdict != sdn.VerdictRewritten || out.Key != "app.quarantine.group3" {
					t.Fatalf("rollback gave key %q verdict %v", out.Key, verdict)
				}
				// Healthy config keys pass untouched.
				if _, v := prog.Apply(sdn.Event{Kind: sdn.EventConfig,
					Key: "vlan.zone1", Value: "7"}); v != sdn.VerdictPass {
					t.Fatalf("healthy config verdict = %v, want pass", v)
				}
			},
		},
		{
			name:    "rollback of a keyless class",
			patch:   Patch{Production: ProdRollback, Class: "hardware-reboot", SetKeyPrefix: "app.quarantine."},
			wantErr: true,
		},
		{
			name:    "rollback into the poison prefix loops",
			patch:   Patch{Production: ProdRollback, Class: "configuration/multicast", SetKeyPrefix: "multicast.x"},
			wantErr: true,
		},
		{
			name:    "rollback with empty prefix",
			patch:   Patch{Production: ProdRollback, Class: "configuration/multicast"},
			wantErr: true,
		},
		{
			name:  "clamp admits budget then drops, resets per incarnation",
			patch: Patch{Production: ProdClamp, Class: "hardware-reboot", Budget: 2},
			check: func(t *testing.T, prog *sdn.Program) {
				ev := sdn.Event{Kind: sdn.EventHardwareReboot, DPID: 9}
				verdicts := []sdn.Verdict{}
				for i := 0; i < 3; i++ {
					_, v := prog.Apply(ev)
					verdicts = append(verdicts, v)
				}
				want := []sdn.Verdict{sdn.VerdictPass, sdn.VerdictPass, sdn.VerdictDropped}
				for i := range want {
					if verdicts[i] != want[i] {
						t.Fatalf("clamp verdicts = %v, want %v", verdicts, want)
					}
				}
				prog.NewIncarnation()
				if _, v := prog.Apply(ev); v != sdn.VerdictPass {
					t.Fatalf("clamp budget not reset on new incarnation: %v", v)
				}
			},
		},
		{
			name:    "clamp with zero budget",
			patch:   Patch{Production: ProdClamp, Class: "hardware-reboot"},
			wantErr: true,
		},
		{
			name:    "unknown production",
			patch:   Patch{Production: numProductions, Class: "hardware-reboot"},
			wantErr: true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			baseFP := tc.base.Fingerprint()
			prog, err := tc.patch.Apply(tc.base)
			if tc.base.Fingerprint() != baseFP {
				t.Fatal("Apply mutated the base program")
			}
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Apply succeeded, want error (got %d rules)", len(prog.Rules))
				}
				return
			}
			if err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if verr := prog.Validate(); verr != nil {
				t.Fatalf("patched program invalid: %v", verr)
			}
			if tc.check != nil {
				tc.check(t, prog)
			}
		})
	}
}

func TestSynthesizeCandidatesShape(t *testing.T) {
	// Clamps lead for every class (learner-neutral order); class-shaped
	// sketches follow; reorders only appear with a multi-rule base.
	for _, class := range faultlab.DeterministicPoisonClasses() {
		cands := SynthesizeCandidates(class, nil)
		if len(cands) < 3 {
			t.Fatalf("%s: only %d candidates", class, len(cands))
		}
		for i := 0; i < 3; i++ {
			if cands[i].Production != ProdClamp {
				t.Fatalf("%s: candidate %d is %v, want leading clamps", class, i, cands[i].Production)
			}
			if cands[i].Class != class {
				t.Fatalf("%s: candidate class %q", class, cands[i].Class)
			}
		}
	}
	config := SynthesizeCandidates("configuration/multicast", nil)
	var guards, rollbacks int
	for _, c := range config {
		switch c.Production {
		case ProdGuard:
			guards++
		case ProdRollback:
			rollbacks++
		}
	}
	if guards == 0 || rollbacks == 0 {
		t.Fatalf("config grid missing guard (%d) or rollback (%d) sketches", guards, rollbacks)
	}
	network := SynthesizeCandidates("network-event/mirror-vlan", nil)
	stripVlan := false
	for _, c := range network {
		if c.Production == ProdGuard && c.StripVlan {
			stripVlan = true
		}
	}
	if !stripVlan {
		t.Fatal("network grid missing the strip-vlan guard")
	}
	withBase := SynthesizeCandidates("hardware-reboot", twoRuleBase())
	reorders := 0
	for _, c := range withBase {
		if c.Production == ProdReorder {
			reorders++
		}
	}
	if reorders == 0 {
		t.Fatal("no reorder sketches over a two-rule base")
	}
}

// TestRepairEndToEnd runs the full loop at the canonical seed: at
// least one taxonomy category must repair end-to-end, availability
// must rise, nothing may regress, no lifted shed may re-shed — and
// the repair counters must tell the same story.
func TestRepairEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	rep, err := Run(Config{Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	repairedCats := 0
	for _, r := range rep.Rates {
		if r.Repaired > 0 {
			repairedCats++
		}
	}
	if repairedCats < 1 {
		t.Fatalf("no taxonomy category repaired: %+v", rep.Rates)
	}
	if len(rep.Lifted) == 0 {
		t.Fatal("no shed lifted")
	}
	if len(rep.ReShed) != 0 {
		t.Fatalf("lifted classes re-shed: %v", rep.ReShed)
	}
	if rep.Epoch2.Availability <= rep.Epoch1.Availability {
		t.Fatalf("availability did not improve: %.4f -> %.4f",
			rep.Epoch1.Availability, rep.Epoch2.Availability)
	}
	if len(rep.Final.Regressions) != 0 {
		t.Fatalf("composed program regressed checks: %v", rep.Final.Regressions)
	}
	snap := reg.Snapshot()
	if snap.Counters["repair_candidates_generated_total"] == 0 ||
		snap.Counters["repair_candidates_validated_total"] == 0 ||
		snap.Counters["repair_candidates_rejected_total"] == 0 {
		t.Fatalf("repair counters incomplete: %v", snap.Counters)
	}
	if got := snap.Counters["repair_sheds_lifted_total"]; got != uint64(len(rep.Lifted)) {
		t.Fatalf("repair_sheds_lifted_total = %d, want %d", got, len(rep.Lifted))
	}
	if snap.Histograms["repair_validation_wall_ms"].Count == 0 {
		t.Fatal("validation wall histogram empty")
	}
}

// TestFailingCandidateLeavesShed: a class whose whole sketch grid
// fails validation (the drifted external service — no event rewrite
// can fix the environment) must stay shed through epoch 2, with
// nothing lifted.
func TestFailingCandidateLeavesShed(t *testing.T) {
	rep, err := Run(Config{Seed: 1, Classes: []string{"external-call/influxdb"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != 1 || rep.Classes[0].Class != "external-call/influxdb" {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	cr := rep.Classes[0]
	if cr.Repaired {
		t.Fatalf("unrepairable class reported repaired via %s", cr.Patch)
	}
	if len(cr.Attempts) == 0 {
		t.Fatal("no candidates attempted")
	}
	for _, a := range cr.Attempts {
		if a.Outcome == "repaired" {
			t.Fatalf("attempt %+v claims repair on an unrepaired class", a)
		}
	}
	if len(rep.Lifted) != 0 {
		t.Fatalf("lifted %v with no repair", rep.Lifted)
	}
	found := false
	for _, c := range rep.Epoch2.ShedClasses {
		if c == "external-call/influxdb" {
			found = true
		}
	}
	if !found {
		t.Fatalf("failed class missing from epoch-2 shed set: %v", rep.Epoch2.ShedClasses)
	}
}

// TestRunDeterministic: the repair report is byte-identical across
// runs at the same seed — no wall-clock, no map-order, no
// rand-without-seed anywhere in the loop.
func TestRunDeterministic(t *testing.T) {
	run := func() []byte {
		rep, err := Run(Config{Seed: 1, Events: 600})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("reports diverged at fixed seed:\n%s\n----\n%s", a, b)
	}
	if !strings.Contains(string(a), "\"seed\": 1") {
		t.Fatalf("report missing seed: %s", a)
	}
}

// TestLiftWithoutRepairResheds exercises the lifecycle contract on
// the real campaign session: lifting a shed with no program installed
// re-exposes the poison, and the supervisor deterministically sheds
// the class again in the next epoch.
func TestLiftWithoutRepairResheds(t *testing.T) {
	sess, err := faultlab.NewSession(faultlab.CampaignConfig{
		Seed: 1, Events: 600, Supervised: true, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sess.PlayEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.ShedClasses) == 0 {
		t.Fatal("epoch 1 shed nothing; scenario needs a shed class")
	}
	class := r1.ShedClasses[0]
	if !sess.Sup.LiftShed(class) {
		t.Fatalf("LiftShed(%s) refused", class)
	}
	r2, err := sess.PlayEpoch()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range r2.ShedClasses {
		if c == class {
			found = true
		}
	}
	if !found {
		t.Fatalf("%s not re-shed after unrepaired lift: %v", class, r2.ShedClasses)
	}
}
