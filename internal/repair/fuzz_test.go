package repair

import (
	"testing"

	"sdnbugs/internal/faultlab"
	"sdnbugs/internal/sdn"
)

// FuzzRepairPatch hammers Patch.Apply with arbitrary hole fillings:
// whatever the sketch parameters, application must never panic, must
// never mutate the base program, and every successfully patched
// program must stay well-formed and apply cleanly over a
// representative event mix.
func FuzzRepairPatch(f *testing.F) {
	classes := append(faultlab.DeterministicPoisonClasses(),
		"configuration", "network-event", "external-call/etcd", "bogus/class", "")
	f.Add(int64(3), uint8(0), 0, 1, false, "", "", 0, 0)
	f.Add(int64(0), uint8(1), -3, 7, true, "0", "app.quarantine.", 2, 10)
	f.Add(int64(2), uint8(2), 1, 1, false, "disabled", "multicast.loop", -1, -5)
	f.Add(int64(4), uint8(3), 1<<30, -(1 << 30), true, "x", "", 1, 1<<20)
	f.Add(int64(9), uint8(200), 0, 0, false, "", "q.", 1, 3)
	f.Fuzz(func(t *testing.T, classIdx int64, prod uint8, i, j int, strip bool, setValue, setPrefix string, budget, priority int) {
		base := twoRuleBase()
		baseFP := base.Fingerprint()
		patch := Patch{
			Production:   Production(prod),
			Class:        classes[int(classIdx%int64(len(classes))+int64(len(classes)))%len(classes)],
			I:            i,
			J:            j,
			StripVlan:    strip,
			SetValue:     setValue,
			SetKeyPrefix: setPrefix,
			Budget:       budget,
			Priority:     priority,
		}
		prog, err := patch.Apply(base)
		if base.Fingerprint() != baseFP {
			t.Fatalf("Apply mutated the base program: patch %+v", patch)
		}
		if err != nil {
			return
		}
		if verr := prog.Validate(); verr != nil {
			t.Fatalf("patch %+v produced invalid program: %v", patch, verr)
		}
		events := []sdn.Event{
			{Kind: sdn.EventConfig, Key: "multicast.group1", Value: "225"},
			{Kind: sdn.EventConfig, Key: "vlan.zone3", Value: "140"},
			{Kind: sdn.EventExternalCall, Service: "atomix"},
			{Kind: sdn.EventExternalCall, Service: "influxdb"},
			{Kind: sdn.EventHardwareReboot, DPID: 2},
			packetEvent(sdn.Packet{EthSrc: 1, EthDst: 2, EthType: 0x0800}),
			packetEvent(sdn.Packet{EthSrc: 1, EthDst: sdn.BroadcastMAC, EthType: 0x0806}),
			packetEvent(sdn.Packet{EthSrc: 1, EthDst: sdn.BroadcastMAC,
				EthType: 0x0806, VlanID: faultlab.PoisonVLAN}),
			{Kind: sdn.EventNetwork}, // no frame attached
			{},
		}
		// Two incarnations: clamp counters must survive resets.
		for pass := 0; pass < 2; pass++ {
			prog.NewIncarnation()
			for _, ev := range events {
				out, verdict := prog.Apply(ev)
				if verdict == sdn.VerdictRewritten {
					if _, v2 := prog.Apply(out); v2 == sdn.VerdictRewritten && out.Kind == sdn.EventConfig {
						// A rewrite must be at a fixed point for config keys —
						// otherwise a rollback chain could loop forever.
						if out2, _ := prog.Apply(out); out2.Key != out.Key {
							t.Fatalf("patch %+v rewrites its own output: %q -> %q", patch, out.Key, out2.Key)
						}
					}
				}
			}
		}
	})
}
