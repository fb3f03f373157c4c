package faultlab

// The schedule player: every fault campaign — the E22 watchdog and
// supervised runs, the repair loop's Session epochs, the E26 cluster
// modes, and the perfuzz harness — is a Schedule of slots played
// against a Runtime. What the campaigns share lives here: building
// events and packets from each slot kind (NewSlot, Slot.packet),
// pumping traffic (through sdn.Pump), and drawing wire episodes
// (Player). A Runtime
// owns what differs: how a round of events is submitted, what a wire
// fault does, what runs around each slot, and what a broadcast probe
// decides.

import (
	"fmt"
	"math/rand"

	"sdnbugs/internal/sdn"
)

// SlotKind is the type of one schedule slot.
type SlotKind uint8

// Slot kinds. The order matches perfuzz's gene ops, which compile onto
// them one to one.
const (
	// SlotConfig pushes a benign VLAN config stanza.
	SlotConfig SlotKind = iota
	// SlotPoisonConfig pushes a multicast.* stanza, the deterministic
	// crash poison.
	SlotPoisonConfig
	// SlotExternal calls an external service.
	SlotExternal
	// SlotReboot reboots a switch.
	SlotReboot
	// SlotUnicast pumps one unicast packet between two hosts.
	SlotUnicast
	// SlotBroadcast pumps a broadcast flood, a probe of connectivity.
	SlotBroadcast
	// SlotMirrorBroadcast pumps a broadcast on the mirror (poison) VLAN.
	SlotMirrorBroadcast
	// SlotWireFault injects one connection-layer fault episode.
	SlotWireFault
)

// Slot is one step of a fault campaign.
type Slot struct {
	Kind SlotKind
	// Ev is the management event of config, external-call and reboot
	// slots.
	Ev sdn.Event
	// Src and Dst are the traffic slots' hosts; only unicast reads Dst.
	Src, Dst uint64
	// Wire is the wire-fault slot's episode.
	Wire WireFaultKind
}

// Schedule is a fault campaign as data: its slots plus the seed of the
// PRNG that draws the wire-fault episodes.
type Schedule struct {
	Slots    []Slot
	WireSeed int64
}

// NewSlot builds a slot from its kind and two raw operands, each
// taken modulo its range: a selects the config zone, poison group,
// service, switch, source host or wire episode; b the config value or
// the destination host. Campaign schedules and compiled perfuzz
// genomes both build their slots here.
func NewSlot(kind SlotKind, a, b int, hosts, dpids []uint64) Slot {
	s := Slot{Kind: kind}
	switch kind {
	case SlotConfig:
		s.Ev = sdn.Event{Kind: sdn.EventConfig,
			Key:   fmt.Sprintf("vlan.zone%d", a%40),
			Value: fmt.Sprintf("%d", 100+b%3000)}
	case SlotPoisonConfig:
		s.Ev = sdn.Event{Kind: sdn.EventConfig, Key: fmt.Sprintf("multicast.group%d", a%8), Value: "225"}
	case SlotExternal:
		s.Ev = sdn.Event{Kind: sdn.EventExternalCall, Service: services[a%len(services)]}
	case SlotReboot:
		s.Ev = sdn.Event{Kind: sdn.EventHardwareReboot, DPID: dpids[a%len(dpids)]}
	case SlotUnicast, SlotBroadcast, SlotMirrorBroadcast:
		s.Src, s.Dst = hosts[a%len(hosts)], hosts[b%len(hosts)]
	case SlotWireFault:
		s.Wire = WireFaultKind(a % int(numWireFaultKinds))
	}
	return s
}

// packet is the traffic slot's packet.
func (s Slot) packet() sdn.Packet {
	switch s.Kind {
	case SlotBroadcast:
		return sdn.Packet{EthDst: sdn.BroadcastMAC, EthType: 0x0806}
	case SlotMirrorBroadcast:
		return sdn.Packet{EthDst: sdn.BroadcastMAC, EthType: 0x0806, VlanID: PoisonVLAN}
	}
	return sdn.Packet{EthDst: s.Dst, EthType: 0x0800}
}

// Runtime is a controller deployment a schedule plays against.
type Runtime interface {
	// Net is the network the next traffic slot injects into.
	Net() *sdn.Network
	// Submit offers one pump round of events, in order. A management
	// slot is a round of one. The slice is only valid during the call.
	Submit(events []sdn.Event)
	// Slot is the per-slot hook. It runs around slot i and calls play
	// for each slot it lets through: a runtime may skip or defer the
	// slot, replay deferred ones first, or act after it.
	Slot(i int, s Slot, play func(Slot) error) error
	// Wire resolves a wire-fault slot, drawing the episode from rng.
	Wire(s Slot, rng *rand.Rand) error
	// Probe plays a broadcast slot. flood pumps a slot's packet and
	// returns how many distinct hosts received it; a runtime may flood
	// again to spot-check a failure.
	Probe(s Slot, flood func(Slot) int)
}

// Player plays one schedule against one runtime. The wire PRNG lives
// as long as the player, so replaying the schedule (a Session's next
// epoch) continues the episode stream instead of repeating it.
type Player struct {
	pump  sdn.Pump
	rt    Runtime
	sched Schedule
	wire  *rand.Rand
	// mgmt is a management slot's round of one.
	mgmt [1]sdn.Event
	// round, play and flood are bound once so that handing them to
	// the runtime per slot does not allocate.
	round func([]sdn.Event) bool
	play  func(Slot) error
	flood func(Slot) int
}

// NewPlayer binds a schedule to a runtime.
func NewPlayer(rt Runtime, sched Schedule) *Player {
	p := &Player{rt: rt, sched: sched, wire: rand.New(rand.NewSource(sched.WireSeed))}
	p.round = func(events []sdn.Event) bool {
		rt.Submit(events)
		return true
	}
	p.play = p.PlaySlot
	p.flood = p.reached
	return p
}

// Play plays every slot of the schedule through the runtime's slot
// hook, stopping at the first error.
func (p *Player) Play() error {
	for i, s := range p.sched.Slots {
		if err := p.rt.Slot(i, s, p.play); err != nil {
			return err
		}
	}
	return nil
}

// PlaySlot plays one slot, bypassing the slot hook.
func (p *Player) PlaySlot(s Slot) error {
	switch s.Kind {
	case SlotUnicast:
		p.pump.Send(p.rt.Net(), s.Src, s.packet(), p.round)
	case SlotBroadcast, SlotMirrorBroadcast:
		p.rt.Probe(s, p.flood)
	case SlotWireFault:
		return p.rt.Wire(s, p.wire)
	default:
		p.mgmt[0] = s.Ev
		p.rt.Submit(p.mgmt[:])
	}
	return nil
}

// reached pumps a traffic slot and counts the distinct hosts it
// reached.
func (p *Player) reached(s Slot) int {
	deliveries, _ := p.pump.Send(p.rt.Net(), s.Src, s.packet(), p.round)
	return distinctHosts(deliveries)
}

// distinctHosts counts the distinct hosts among deliveries.
func distinctHosts(deliveries []sdn.Delivery) int {
	seen := make(map[uint64]bool)
	for _, d := range deliveries {
		seen[d.MAC] = true
	}
	return len(seen)
}
