package faultlab

import (
	"math/rand"
	"testing"

	"sdnbugs/internal/sdn"
)

func TestWireEpisodesAllKindsFaultAndRecover(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for k := WireFaultKind(0); k < numWireFaultKinds; k++ {
		faultErr, err := WireEpisode(k, rng)
		if err != nil {
			t.Fatalf("%v: harness error: %v", k, err)
		}
		if faultErr == nil {
			t.Fatalf("%v: episode produced no fault", k)
		}
	}
}

func TestClassifyEvent(t *testing.T) {
	cases := []struct {
		ev   sdn.Event
		want string
	}{
		{sdn.Event{Kind: sdn.EventConfig, Key: "vlan.zone1", Value: "100"}, "configuration"},
		{sdn.Event{Kind: sdn.EventConfig, Key: "multicast.group1", Value: "225"}, "configuration/multicast"},
		{sdn.Event{Kind: sdn.EventExternalCall, Service: "atomix"}, "external-call/atomix"},
		{sdn.Event{Kind: sdn.EventHardwareReboot, DPID: 2}, "hardware-reboot"},
	}
	for _, tc := range cases {
		if got := ClassifyEvent(tc.ev); got != tc.want {
			t.Errorf("ClassifyEvent(%+v) = %q, want %q", tc.ev, got, tc.want)
		}
	}
}

func TestBuildScheduleDeterministic(t *testing.T) {
	hosts := []uint64{1, 2, 3}
	dpids := []uint64{1, 2}
	a := buildSchedule(5, 300, hosts, dpids).Slots
	b := buildSchedule(5, 300, hosts, dpids).Slots
	if len(a) != 300 || len(b) != 300 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	counts := make(map[SlotKind]int)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
		counts[a[i].Kind]++
	}
	// Every band of the schedule must actually be exercised.
	for k := SlotConfig; k <= SlotWireFault; k++ {
		if counts[k] == 0 {
			t.Errorf("slot kind %d never scheduled in 300 slots", k)
		}
	}
}

func TestCampaignFingerprintDeterministic(t *testing.T) {
	for _, cfg := range []CampaignConfig{
		{Seed: 3, Events: 400, Supervised: true, CheckpointEvery: 32},
		{Seed: 3, Events: 400},
	} {
		a, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		b, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("mode %s: same-seed runs diverged:\n%s\n%s", a.Mode, a.Fingerprint(), b.Fingerprint())
		}
	}
}

func TestCampaignSupervisedBeatsBaseline(t *testing.T) {
	sup, err := RunCampaign(CampaignConfig{Seed: 2, Events: 600, Supervised: true, CheckpointEvery: 48})
	if err != nil {
		t.Fatal(err)
	}
	unsup, err := RunCampaign(CampaignConfig{Seed: 2, Events: 600})
	if err != nil {
		t.Fatal(err)
	}
	if sup.EventAvailability() <= unsup.EventAvailability() {
		t.Errorf("supervised availability %.4f not above unsupervised %.4f",
			sup.EventAvailability(), unsup.EventAvailability())
	}
	if sup.Lost != 0 {
		t.Errorf("supervised run lost %d events, want 0", sup.Lost)
	}
	allowed := make(map[string]bool)
	for _, c := range DeterministicPoisonClasses() {
		allowed[c] = true
	}
	for _, c := range sup.ShedClasses {
		if !allowed[c] {
			t.Errorf("shed class %q is not a deterministic poison class", c)
		}
	}
	if sup.WireKills != 0 || sup.FinalState != "running" {
		t.Errorf("wire faults harmed the supervised run: kills=%d final=%s", sup.WireKills, sup.FinalState)
	}
	if sup.WireFaults > 0 && unsup.WireKills == 0 {
		t.Errorf("baseline did not fail-fast on wire faults: %d faults, %d kills", unsup.WireFaults, unsup.WireKills)
	}
}

func TestNewLabArmsAllFaults(t *testing.T) {
	lab, err := NewLab(CampaignSuite(9)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(lab.Faults) != len(StandardSuite(9)) {
		t.Fatalf("armed %d faults, want %d", len(lab.Faults), len(StandardSuite(9)))
	}
	if lab.BaselineMeanCost() <= 0 {
		t.Fatalf("baseline mean cost %f not measured", lab.BaselineMeanCost())
	}
	if lab.C.State != sdn.StateRunning {
		t.Fatalf("multi-fault lab controller %v at start", lab.C.State)
	}
}
