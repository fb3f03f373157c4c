package sdn

// maxControlRounds bounds the packet-in rounds one injected packet may
// cause.
const maxControlRounds = 32

// Pump is the reactive-forwarding control loop between a network and
// whatever serves its punts — a controller, a lab filter in front of
// one, a supervisor or a replicated ensemble. It owns the event buffer
// it hands to its round callbacks, reused across rounds and sends; the
// zero value is ready to use.
type Pump struct {
	events  []Event
	dropped int
}

// Dropped returns how many punts the pump discarded unserved because a
// send stopped at maxControlRounds or because its round callback
// returned false.
func (pp *Pump) Dropped() int { return pp.dropped }

// Send injects packet p at host src and hands the resulting punts to
// round, one slice per control round, until the network goes quiet,
// maxControlRounds rounds pass, or round returns false. Events point
// into the drained packet-in slice (ownership transfers at
// DrainPacketIns), so a round costs no heap copy per punt. The slice
// round receives is valid only during the call. Punts still queued
// when Send stops are emptied in place and counted in Dropped, so the
// next Send serves only punts its own packet caused. Send returns the
// host deliveries the packet caused, those of an early stop included.
func (pp *Pump) Send(net *Network, src uint64, p Packet, round func([]Event) bool) ([]Delivery, error) {
	net.DrainDeliveries()
	if _, err := net.InjectFromHost(src, p); err != nil {
		return nil, err
	}
	for r := 0; r < maxControlRounds; r++ {
		pis := net.DrainPacketIns()
		if len(pis) == 0 {
			break
		}
		pp.events = pp.events[:0]
		for i := range pis {
			pp.events = append(pp.events, Event{Kind: EventNetwork, Msg: &pis[i]})
		}
		if !round(pp.events) {
			break
		}
	}
	if left := len(net.PacketIns); left > 0 {
		pp.dropped += left
		clear(net.PacketIns)
		net.PacketIns = net.PacketIns[:0]
	}
	return net.DrainDeliveries(), nil
}
