package recovery

import (
	"sdnbugs/internal/faultlab"
	"sdnbugs/internal/openflow"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/taxonomy"
)

// FlowGraphMonitor models SPHINX's core mechanism: it observes every
// OpenFlow packet-in and incrementally builds a "flow graph" — here,
// the learned attachment point (switch, port) of every source MAC.
// Diagnosis tools built on such a model assume they see *all* input
// messages; §VII-C's composition caveat is that layering an input
// filter (Bouncer-style) underneath starves the model.
type FlowGraphMonitor struct {
	// learned[dpid][mac] = in-port where mac was observed.
	learned map[uint64]map[uint64]uint32
	// Observed counts the packet-ins the monitor actually saw.
	Observed int
}

// NewFlowGraphMonitor returns an empty monitor.
func NewFlowGraphMonitor() *FlowGraphMonitor {
	return &FlowGraphMonitor{learned: make(map[uint64]map[uint64]uint32)}
}

// Middleware returns the observation hook. It never modifies events —
// a pure monitor.
func (m *FlowGraphMonitor) Middleware() sdn.Middleware {
	return func(next sdn.HandlerFunc) sdn.HandlerFunc {
		return func(c *sdn.Controller, ev sdn.Event) (int, error) {
			if ev.Kind == sdn.EventNetwork {
				if pi, ok := ev.Msg.(*openflow.PacketIn); ok {
					if pkt, err := sdn.DecodePacket(pi.Data); err == nil {
						if m.learned[pi.DatapathID] == nil {
							m.learned[pi.DatapathID] = make(map[uint64]uint32)
						}
						m.learned[pi.DatapathID][pkt.EthSrc] = pi.InPort
						m.Observed++
					}
				}
			}
			return next(c, ev)
		}
	}
}

// Knows reports whether the model has an attachment entry for mac at
// the given switch, and whether it matches the expected port.
func (m *FlowGraphMonitor) Knows(dpid, mac uint64, port uint32) bool {
	got, ok := m.learned[dpid][mac]
	return ok && got == port
}

// Completeness returns the fraction of the network's hosts whose true
// attachment point the model knows — the accuracy metric a SPHINX-like
// verifier's conclusions rest on.
func (m *FlowGraphMonitor) Completeness(net *sdn.Network) float64 {
	hosts := net.Hosts()
	if len(hosts) == 0 {
		return 0
	}
	known := 0
	for _, mac := range hosts {
		at, err := net.HostAttachment(mac)
		if err != nil {
			continue
		}
		if m.Knows(at.DPID, mac, at.Port) {
			known++
		}
	}
	return float64(known) / float64(len(hosts))
}

// InputFilter models Bouncer-style proactive input filtering: events
// matching the predicate are dropped before any inner layer — the
// controller *and* any monitor composed inside — can see them.
func InputFilter(drop func(sdn.Event) bool) sdn.Middleware {
	return func(next sdn.HandlerFunc) sdn.HandlerFunc {
		return func(c *sdn.Controller, ev sdn.Event) (int, error) {
			if drop(ev) {
				return 1, nil
			}
			return next(c, ev)
		}
	}
}

// CompositionResult is the outcome of the §VII-C layering experiment.
type CompositionResult struct {
	// UnfilteredCompleteness is the monitor's model completeness when
	// it sees every packet-in.
	UnfilteredCompleteness float64
	// FilteredCompleteness is the completeness when a Bouncer-style
	// filter drops a class of inputs before the monitor.
	FilteredCompleteness float64
	// DroppedClassSeen counts monitor observations of the filtered
	// class in the filtered run (must be zero).
	DroppedClassSeen int
}

// RunCompositionExperiment reproduces §VII-C's caveat concretely: a
// topology where hosts first announce themselves with a mirror-VLAN
// broadcast (the only packet that reveals some hosts' location), a
// SPHINX-like monitor, and a Bouncer-like filter that deems mirror-
// VLAN broadcasts suspicious and drops them. Layered naively, the
// filter starves the monitor's flow graph.
func RunCompositionExperiment() (CompositionResult, error) {
	var out CompositionResult

	run := func(filtered bool) (*FlowGraphMonitor, error) {
		net, err := sdn.LinearTopology(3)
		if err != nil {
			return nil, err
		}
		monitor := NewFlowGraphMonitor()
		mws := []sdn.Middleware{monitor.Middleware()}
		if filtered {
			// The filter sits OUTSIDE the monitor: Bouncer discards
			// input before SPHINX models it.
			drop := faultlab.PoisonSignature(taxonomy.TriggerNetworkEvent)
			mws = append([]sdn.Middleware{InputFilter(drop)}, mws...)
		}
		app := sdn.NewL2Switch(nil)
		c := sdn.NewController(net, sdn.NewEnvironment(), app, mws...)
		// A crashed controller leaves the rest of its punts unserved.
		submit := func(events []sdn.Event) bool {
			c.ReserveLog(len(events))
			for _, ev := range events {
				if c.State == sdn.StateCrashed || c.Submit(ev) != nil {
					return false
				}
			}
			return true
		}
		var pump sdn.Pump
		// Each host announces itself once on the mirror VLAN — for a
		// silent host this is the only packet revealing its location.
		for _, mac := range net.Hosts() {
			if _, err := pump.Send(net, mac, sdn.Packet{
				EthDst: sdn.BroadcastMAC, EthType: 0x0806, VlanID: faultlab.PoisonVLAN,
			}, submit); err != nil {
				return nil, err
			}
		}
		return monitor, nil
	}

	unfiltered, err := run(false)
	if err != nil {
		return out, err
	}
	filteredMon, err := run(true)
	if err != nil {
		return out, err
	}
	out.UnfilteredCompleteness = completenessOf(unfiltered)
	out.FilteredCompleteness = completenessOf(filteredMon)
	out.DroppedClassSeen = filteredMon.Observed
	return out, nil
}

// completenessOf evaluates a monitor against the canonical 3-switch
// line topology it was driven on.
func completenessOf(m *FlowGraphMonitor) float64 {
	net, err := sdn.LinearTopology(3)
	if err != nil {
		return 0
	}
	return m.Completeness(net)
}
