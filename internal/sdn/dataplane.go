// Package sdn implements the simulated SDN ecosystem of the paper's
// Figure 1: a dataplane of OpenFlow switches and hosts, an event-driven
// controller framework reacting to the four canonical event sources
// (configuration, network events, external calls, hardware reboots),
// and a learning-switch application on top. The fault-injection lab
// (internal/faultlab) and the recovery frameworks (internal/recovery)
// drive this substrate to reproduce Table VII empirically.
package sdn

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"sdnbugs/internal/openflow"
)

// Packet is a simulated Ethernet frame.
type Packet struct {
	EthSrc  uint64
	EthDst  uint64
	EthType uint16
	VlanID  uint16
	Payload []byte
}

// BroadcastMAC is the all-ones destination address.
const BroadcastMAC uint64 = 0xffffffffffff

// IsBroadcast reports whether the packet is a broadcast frame.
func (p Packet) IsBroadcast() bool { return p.EthDst == BroadcastMAC }

// FlowEntry is one row of a switch's flow table.
type FlowEntry struct {
	Priority uint16
	Match    openflow.Match
	Actions  []openflow.Action
}

// matches reports whether the entry matches a packet arriving on
// inPort.
func (e FlowEntry) matches(p Packet, inPort uint32) bool {
	m := e.Match
	if m.MatchInPort && m.InPort != inPort {
		return false
	}
	if m.EthSrc != 0 && m.EthSrc != p.EthSrc {
		return false
	}
	if m.EthDst != 0 && m.EthDst != p.EthDst {
		return false
	}
	if m.EthType != 0 && m.EthType != p.EthType {
		return false
	}
	if m.VlanID != 0 && m.VlanID != p.VlanID {
		return false
	}
	return true
}

// FlowTable holds prioritized flow entries in table order: highest
// priority first, ties in insertion order. It is indexed by exact
// EthDst, with a separate list for entries that wildcard EthDst, so
// Lookup and Add visit only one destination's entries and the
// wildcard ones. Each list is kept in table order; an insertion stamp
// orders entries across the lists.
type FlowTable struct {
	byDst map[uint64][]flowSlot
	wild  []flowSlot
	n     int
	// seq stamps the next new entry.
	seq uint64
}

// flowSlot is one stored entry with its insertion stamp.
type flowSlot struct {
	FlowEntry
	seq uint64
}

// before reports whether s precedes o in table order.
func (s *flowSlot) before(o *flowSlot) bool {
	return s.Priority > o.Priority || s.Priority == o.Priority && s.seq < o.seq
}

// list returns the entries whose match has EthDst dst (0: wildcard).
func (t *FlowTable) list(dst uint64) []flowSlot {
	if dst == 0 {
		return t.wild
	}
	return t.byDst[dst]
}

// setList stores the entries for EthDst dst, dropping an empty list.
func (t *FlowTable) setList(dst uint64, l []flowSlot) {
	switch {
	case dst == 0:
		t.wild = l
	case len(l) == 0:
		delete(t.byDst, dst)
	default:
		if t.byDst == nil {
			t.byDst = make(map[uint64][]flowSlot)
		}
		t.byDst[dst] = l
	}
}

// Add inserts an entry, replacing an identical-match same-priority one
// in place. The table copies the actions into storage it owns.
func (t *FlowTable) Add(e FlowEntry) {
	l := t.list(e.Match.EthDst)
	i := 0
	for ; i < len(l) && l[i].Priority >= e.Priority; i++ {
		if l[i].Priority == e.Priority && l[i].Match == e.Match {
			l[i].Actions = append(l[i].Actions[:0], e.Actions...)
			return
		}
	}
	owned := FlowEntry{Priority: e.Priority, Match: e.Match, Actions: slices.Clone(e.Actions)}
	t.setList(e.Match.EthDst, slices.Insert(l, i, flowSlot{FlowEntry: owned, seq: t.seq}))
	t.seq++
	t.n++
}

// Delete removes entries with the given match (any priority) and
// returns how many were removed.
func (t *FlowTable) Delete(m openflow.Match) int {
	l := t.list(m.EthDst)
	kept := slices.DeleteFunc(l, func(s flowSlot) bool { return s.Match == m })
	removed := len(l) - len(kept)
	if removed > 0 {
		t.setList(m.EthDst, kept)
		t.n -= removed
	}
	return removed
}

// Clear removes every entry.
func (t *FlowTable) Clear() { *t = FlowTable{} }

// Entries returns a deep copy of the table in table order, for
// checkpoint-based recovery: mutating the copy (or its actions) never
// aliases live dataplane state.
func (t *FlowTable) Entries() []FlowEntry {
	if t.n == 0 {
		return nil
	}
	all := make([]flowSlot, 0, t.n)
	all = append(all, t.wild...)
	for _, l := range t.byDst {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].before(&all[b]) })
	out := make([]FlowEntry, len(all))
	for i, s := range all {
		s.Actions = append([]openflow.Action(nil), s.Actions...)
		out[i] = s.FlowEntry
	}
	return out
}

// Len returns the number of entries.
func (t *FlowTable) Len() int { return t.n }

// Lookup returns the first matching entry in table order, or nil.
func (t *FlowTable) Lookup(p Packet, inPort uint32) *FlowEntry {
	var hit *flowSlot
	l := t.byDst[p.EthDst]
	for i := range l {
		if l[i].matches(p, inPort) {
			hit = &l[i]
			break
		}
	}
	for i := range t.wild {
		w := &t.wild[i]
		if hit != nil && !w.before(hit) {
			break
		}
		if w.matches(p, inPort) {
			hit = w
			break
		}
	}
	if hit == nil {
		return nil
	}
	return &hit.FlowEntry
}

// Switch is one simulated datapath.
type Switch struct {
	DPID     uint64
	NumPorts uint32
	Table    FlowTable
	// ports is indexed by port number; index 0 is unused.
	ports []portState
}

// portState is one switch port's link state and wiring: a link peer, an
// attached host, or neither. A port with both delivers to the host.
type portState struct {
	up       bool
	peer     *Switch // nil when no link
	peerPort uint32
	hasHost  bool
	host     uint64 // the attached host's MAC
}

// NewSwitch builds a switch with all ports up. Port numbers are
// 1-based, as in OpenFlow.
func NewSwitch(dpid uint64, numPorts uint32) *Switch {
	sw := &Switch{DPID: dpid, NumPorts: numPorts, ports: make([]portState, numPorts+1)}
	for i := range sw.ports {
		sw.ports[i].up = true
	}
	return sw
}

// hasPort reports whether port exists on the switch.
func (s *Switch) hasPort(port uint32) bool { return port >= 1 && port <= s.NumPorts }

// PortUp reports whether the port is administratively up.
func (s *Switch) PortUp(port uint32) bool {
	return s.hasPort(port) && s.ports[port].up
}

// SetPort sets a port's link state.
func (s *Switch) SetPort(port uint32, up bool) error {
	if !s.hasPort(port) {
		return fmt.Errorf("sdn: switch %d has no port %d", s.DPID, port)
	}
	s.ports[port].up = up
	return nil
}

// Reboot clears the flow table and restores all ports, as a power
// cycle would.
func (s *Switch) Reboot() {
	s.Table.Clear()
	for i := range s.ports {
		s.ports[i].up = true
	}
}

// PortRef names one switch port.
type PortRef struct {
	DPID uint64
	Port uint32
}

// Host is an end station attached to a switch port.
type Host struct {
	MAC    uint64
	Attach PortRef
}

// Network is the dataplane: switches, inter-switch links, and hosts.
// Links and host attachments live on the switches' ports.
type Network struct {
	switches map[uint64]*Switch
	hosts    map[uint64]Host // by MAC

	// PacketIns collects punts to the controller generated during
	// injection; the controller drains this.
	PacketIns []openflow.PacketIn
	// Deliveries accumulates every host delivery; drivers drain it.
	Deliveries []Delivery

	// replaying is set while a controller's ProcessBatch or Follow
	// replays events another replica served: packet-outs are validated
	// but not forwarded.
	replaying bool
}

// Network errors.
var (
	ErrNoSwitch = errors.New("sdn: no such switch")
	ErrNoHost   = errors.New("sdn: no such host")
	ErrBadLink  = errors.New("sdn: invalid link")
)

// NewNetwork returns an empty dataplane.
func NewNetwork() *Network {
	return &Network{
		switches: make(map[uint64]*Switch),
		hosts:    make(map[uint64]Host),
	}
}

// AddSwitch registers a switch. Registering a datapath id again
// replaces its switch with a fresh one that keeps the old one's links
// and hosts on the ports both have.
func (n *Network) AddSwitch(dpid uint64, numPorts uint32) *Switch {
	sw := NewSwitch(dpid, numPorts)
	old := n.switches[dpid]
	n.switches[dpid] = sw
	if old == nil {
		return sw
	}
	for p := 1; p < min(len(old.ports), len(sw.ports)); p++ {
		w := old.ports[p]
		w.up = true
		sw.ports[p] = w
	}
	for _, s := range n.switches {
		for p := range s.ports {
			if s.ports[p].peer == old {
				s.ports[p].peer = sw
			}
		}
	}
	return sw
}

// Switch returns a switch by datapath id.
func (n *Network) Switch(dpid uint64) (*Switch, error) {
	sw, ok := n.switches[dpid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSwitch, dpid)
	}
	return sw, nil
}

// Switches returns all datapath ids in ascending order.
func (n *Network) Switches() []uint64 {
	out := make([]uint64, 0, len(n.switches))
	for id := range n.switches {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddLink connects two switch ports bidirectionally.
func (n *Network) AddLink(a, b PortRef) error {
	var ends [2]*Switch
	for i, ref := range []PortRef{a, b} {
		sw, ok := n.switches[ref.DPID]
		if !ok {
			return fmt.Errorf("%w: switch %d", ErrBadLink, ref.DPID)
		}
		if !sw.hasPort(ref.Port) {
			return fmt.Errorf("%w: switch %d has no port %d", ErrBadLink, ref.DPID, ref.Port)
		}
		ends[i] = sw
	}
	ends[0].ports[a.Port].peer, ends[0].ports[a.Port].peerPort = ends[1], b.Port
	ends[1].ports[b.Port].peer, ends[1].ports[b.Port].peerPort = ends[0], a.Port
	return nil
}

// AddHost attaches a host to a switch port.
func (n *Network) AddHost(mac uint64, at PortRef) error {
	sw, ok := n.switches[at.DPID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSwitch, at.DPID)
	}
	if !sw.hasPort(at.Port) {
		return fmt.Errorf("sdn: switch %d has no port %d", at.DPID, at.Port)
	}
	n.hosts[mac] = Host{MAC: mac, Attach: at}
	sw.ports[at.Port].hasHost, sw.ports[at.Port].host = true, mac
	return nil
}

// Hosts returns all host MACs in ascending order.
func (n *Network) Hosts() []uint64 {
	out := make([]uint64, 0, len(n.hosts))
	for mac := range n.hosts {
		out = append(out, mac)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Delivery records a packet arriving at a host.
type Delivery struct {
	MAC    uint64
	Packet Packet
}

// maxHops bounds forwarding walks to break accidental loops.
const maxHops = 64

// InjectFromHost sends a packet from the named host into the network
// and returns every host delivery it produces. Table misses punt to
// n.PacketIns and deliver nothing for that branch.
func (n *Network) InjectFromHost(srcMAC uint64, p Packet) ([]Delivery, error) {
	h, ok := n.hosts[srcMAC]
	if !ok {
		return nil, fmt.Errorf("%w: %012x", ErrNoHost, srcMAC)
	}
	p.EthSrc = srcMAC
	mark := len(n.Deliveries)
	if sw, ok := n.switches[h.Attach.DPID]; ok {
		n.forward(sw, h.Attach.Port, p, 0)
	}
	return n.Deliveries[mark:], nil
}

// forward processes a packet arriving at port inPort of sw.
func (n *Network) forward(sw *Switch, inPort uint32, p Packet, hops int) {
	if hops > maxHops || !sw.PortUp(inPort) {
		return
	}
	entry := sw.Table.Lookup(p, inPort)
	if entry == nil {
		// Table miss: punt to controller.
		n.PacketIns = append(n.PacketIns, openflow.PacketIn{
			DatapathID: sw.DPID,
			InPort:     inPort,
			Reason:     0,
			Data:       encodePacket(p),
		})
		return
	}
	cur := p
	for _, a := range entry.Actions {
		switch a.Type {
		case openflow.ActionSetVlan:
			cur.VlanID = a.Vlan
		case openflow.ActionDrop:
			return
		case openflow.ActionOutput:
			switch a.Port {
			case openflow.PortFlood:
				for port := uint32(1); port <= sw.NumPorts; port++ {
					if port == inPort || !sw.PortUp(port) {
						continue
					}
					n.emit(sw, port, cur, hops)
				}
			case openflow.PortController:
				n.PacketIns = append(n.PacketIns, openflow.PacketIn{
					DatapathID: sw.DPID, InPort: inPort, Reason: 1,
					Data: encodePacket(cur),
				})
			default:
				// OpenFlow semantics: a packet is never sent back out
				// of its ingress port unless explicitly requested
				// (OFPP_IN_PORT, which this subset does not model).
				if a.Port != inPort && sw.PortUp(a.Port) {
					n.emit(sw, a.Port, cur, hops)
				}
			}
		}
	}
}

// emit sends a packet out of an up port of sw: to an attached host,
// over a link, or into the void.
func (n *Network) emit(sw *Switch, port uint32, p Packet, hops int) {
	w := &sw.ports[port]
	if w.hasHost {
		if p.IsBroadcast() || p.EthDst == w.host {
			n.Deliveries = append(n.Deliveries, Delivery{MAC: w.host, Packet: p})
		}
		return
	}
	if w.peer != nil {
		n.forward(w.peer, w.peerPort, p, hops+1)
	}
}

// ApplyPacketOut executes a controller packet-out: the carried packet
// is pushed out of the named switch according to the actions, returning
// any host deliveries. New table misses downstream punt to PacketIns.
// During a ProcessBatch or Follow replay the packet-out is validated
// but not forwarded, so it delivers and punts nothing.
func (n *Network) ApplyPacketOut(po openflow.PacketOut) ([]Delivery, error) {
	sw, err := n.Switch(po.DatapathID)
	if err != nil {
		return nil, err
	}
	pkt, err := DecodePacket(po.Data)
	if err != nil || n.replaying {
		return nil, err
	}
	mark := len(n.Deliveries)
	cur := pkt
	for _, a := range po.Actions {
		switch a.Type {
		case openflow.ActionSetVlan:
			cur.VlanID = a.Vlan
		case openflow.ActionDrop:
			return n.Deliveries[mark:], nil
		case openflow.ActionOutput:
			if a.Port == openflow.PortFlood {
				for port := uint32(1); port <= sw.NumPorts; port++ {
					if port == po.InPort || !sw.PortUp(port) {
						continue
					}
					n.emit(sw, port, cur, 0)
				}
			} else if a.Port != po.InPort && sw.PortUp(a.Port) {
				// Never reflect out of the declared ingress port.
				n.emit(sw, a.Port, cur, 0)
			}
		}
	}
	return n.Deliveries[mark:], nil
}

// DrainPacketIns returns and clears the accumulated punts. The caller
// owns the returned slice: events built from it point into it and may
// be logged, so the network starts a new one.
func (n *Network) DrainPacketIns() []openflow.PacketIn {
	out := n.PacketIns
	n.PacketIns = nil
	return out
}

// DrainDeliveries returns and clears the accumulated host deliveries.
// The returned slice is the network's own buffer, valid until the
// network next forwards a packet: the buffer is reused, so draining
// allocates nothing.
func (n *Network) DrainDeliveries() []Delivery {
	out := n.Deliveries
	n.Deliveries = n.Deliveries[:0]
	return out
}

// ApplyFlowMod executes a controller flow-mod against the dataplane.
func (n *Network) ApplyFlowMod(fm openflow.FlowMod) error {
	sw, err := n.Switch(fm.DatapathID)
	if err != nil {
		return err
	}
	switch fm.Command {
	case openflow.FlowAdd:
		sw.Table.Add(FlowEntry{Priority: fm.Priority, Match: fm.Match, Actions: fm.Actions})
	case openflow.FlowDelete:
		sw.Table.Delete(fm.Match)
	default:
		return fmt.Errorf("sdn: unknown flow-mod command %d", fm.Command)
	}
	return nil
}

// encodePacket serializes a Packet into PacketIn data bytes.
func encodePacket(p Packet) []byte {
	out := make([]byte, 20+len(p.Payload))
	putUint48(out[0:], p.EthDst)
	putUint48(out[6:], p.EthSrc)
	out[12] = byte(p.EthType >> 8)
	out[13] = byte(p.EthType)
	out[14] = byte(p.VlanID >> 8)
	out[15] = byte(p.VlanID)
	copy(out[20:], p.Payload)
	return out
}

// DecodePacket parses PacketIn data bytes back into a Packet.
func DecodePacket(b []byte) (Packet, error) {
	if len(b) < 20 {
		return Packet{}, errors.New("sdn: packet too short")
	}
	return Packet{
		EthDst:  getUint48(b[0:]),
		EthSrc:  getUint48(b[6:]),
		EthType: uint16(b[12])<<8 | uint16(b[13]),
		VlanID:  uint16(b[14])<<8 | uint16(b[15]),
		Payload: append([]byte(nil), b[20:]...),
	}, nil
}

func putUint48(b []byte, v uint64) {
	b[0] = byte(v >> 40)
	b[1] = byte(v >> 32)
	b[2] = byte(v >> 24)
	b[3] = byte(v >> 16)
	b[4] = byte(v >> 8)
	b[5] = byte(v)
}

func getUint48(b []byte) uint64 {
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

// EncodePacket serializes a Packet into PacketIn/PacketOut data bytes
// (the inverse of DecodePacket). Exposed for tools that rewrite
// in-flight events, e.g. transform-based recovery.
func EncodePacket(p Packet) []byte { return encodePacket(p) }

// HostAttachment returns the switch port the host is attached to.
func (n *Network) HostAttachment(mac uint64) (PortRef, error) {
	h, ok := n.hosts[mac]
	if !ok {
		return PortRef{}, fmt.Errorf("%w: %012x", ErrNoHost, mac)
	}
	return h.Attach, nil
}

// LinearTopology builds N switches in a line with one host per switch:
// host i (MAC 0x10+i) on port 1 of switch i; inter-switch links use
// ports 2 (towards lower dpid) and 3 (towards higher).
func LinearTopology(n int) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("sdn: need at least 1 switch, got %d", n)
	}
	net := NewNetwork()
	for i := 1; i <= n; i++ {
		net.AddSwitch(uint64(i), 3)
		if err := net.AddHost(uint64(0x10+i), PortRef{uint64(i), 1}); err != nil {
			return nil, err
		}
	}
	for i := 1; i < n; i++ {
		if err := net.AddLink(PortRef{uint64(i), 3}, PortRef{uint64(i + 1), 2}); err != nil {
			return nil, err
		}
	}
	return net, nil
}
