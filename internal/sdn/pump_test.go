package sdn

import (
	"errors"
	"testing"
)

// hostDriver sends host packets through a controller over the pump the
// way a deployment serves punts: each round is submitted in order, and
// a crashed or failing controller leaves the rest unanswered.
type hostDriver struct {
	c    *Controller
	pump Pump
}

func (d *hostDriver) send(src uint64, p Packet) ([]Delivery, error) {
	return d.pump.Send(d.c.Net, src, p, func(events []Event) bool {
		d.c.ReserveLog(len(events))
		for _, ev := range events {
			if d.c.State == StateCrashed || d.c.Submit(ev) != nil {
				return false
			}
		}
		return true
	})
}

// ping reports whether a unicast from src reaches dst.
func (d *hostDriver) ping(src, dst uint64) (bool, error) {
	deliveries, err := d.send(src, Packet{EthDst: dst, EthType: 0x0800})
	for _, del := range deliveries {
		if del.MAC == dst {
			return true, err
		}
	}
	return false, err
}

// broadcast returns the set of hosts a broadcast from src reached.
func (d *hostDriver) broadcast(src uint64) (map[uint64]bool, error) {
	deliveries, err := d.send(src, Packet{EthDst: BroadcastMAC, EthType: 0x0806})
	got := make(map[uint64]bool)
	for _, del := range deliveries {
		got[del.MAC] = true
	}
	return got, err
}

// connectivity is a full-mesh reachability result.
type connectivity struct {
	Pairs, Reachable int
	BroadcastOK      bool
}

// fullConnectivity broadcasts from every host so MACs are learned,
// pings every ordered host pair, then checks a broadcast from the first
// host reaches all the others.
func (d *hostDriver) fullConnectivity() (connectivity, error) {
	hosts := d.c.Net.Hosts()
	var rep connectivity
	for _, src := range hosts {
		if _, err := d.broadcast(src); err != nil {
			return rep, err
		}
	}
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			rep.Pairs++
			ok, err := d.ping(src, dst)
			if err != nil {
				return rep, err
			}
			if ok {
				rep.Reachable++
			}
		}
	}
	got, err := d.broadcast(hosts[0])
	rep.BroadcastOK = len(got) == len(hosts)-1
	return rep, err
}

// ringTopology is n switches in a cycle with one host per switch,
// wired like LinearTopology plus a link from the last switch back to
// the first. Broadcasts stay reactive, so a flood circles the ring and
// re-punts every round.
func ringTopology(t *testing.T, n int) *Network {
	t.Helper()
	net, err := LinearTopology(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink(PortRef{uint64(n), 3}, PortRef{1, 2}); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPumpStopsAfterMaxControlRounds(t *testing.T) {
	net := ringTopology(t, 3)
	c := NewController(net, NewEnvironment(), NewL2Switch(nil))
	var pump Pump
	var rounds [][]Packet
	send := func(src uint64) []Delivery {
		rounds = rounds[:0]
		deliveries, err := pump.Send(net, src, Packet{EthDst: BroadcastMAC, EthType: 0x0806}, func(events []Event) bool {
			var pkts []Packet
			for _, ev := range events {
				pkt, _ := PacketOf(ev)
				pkts = append(pkts, pkt)
				if err := c.Submit(ev); err != nil {
					t.Fatal(err)
				}
			}
			rounds = append(rounds, pkts)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return deliveries
	}
	if deliveries := send(0x11); len(deliveries) == 0 {
		t.Error("no deliveries returned")
	}
	if len(rounds) != 32 {
		t.Errorf("pumped %d rounds, want the 32-round bound", len(rounds))
	}
	// The ring re-punts every round, so the cut leaves punts behind:
	// Send drops and counts them instead of leaving them queued.
	cut := pump.Dropped()
	if cut == 0 {
		t.Error("Dropped = 0 after the bound: the ring should re-punt every round")
	}
	if len(net.PacketIns) != 0 {
		t.Errorf("%d punts left queued after the bound", len(net.PacketIns))
	}
	// The next send's first round holds only its own packet's punts.
	send(0x12)
	if len(rounds) == 0 || len(rounds[0]) == 0 {
		t.Fatal("follow-up broadcast caused no punts")
	}
	for _, pkt := range rounds[0] {
		if pkt.EthSrc != 0x12 {
			t.Errorf("follow-up first round holds a punt from %#x, want only 0x12's", pkt.EthSrc)
		}
	}
	if pump.Dropped() <= cut {
		t.Errorf("Dropped = %d after a second cut, want more than %d", pump.Dropped(), cut)
	}
}

func TestPumpStopsWhenRoundReturnsFalse(t *testing.T) {
	net := ringTopology(t, 3)
	c := NewController(net, NewEnvironment(), NewL2Switch(nil))
	var pump Pump
	rounds := 0
	deliveries, err := pump.Send(net, 0x11, Packet{EthDst: BroadcastMAC, EthType: 0x0806}, func(events []Event) bool {
		rounds++
		for _, ev := range events {
			if err := c.Submit(ev); err != nil {
				t.Fatal(err)
			}
		}
		return rounds < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Errorf("pumped %d rounds after the callback said stop at 2", rounds)
	}
	// Round 1 floods from switch 1 to host 0x12's and 0x13's switches,
	// which punt; round 2 floods those to hosts 0x12 and 0x13.
	got := map[uint64]bool{}
	for _, del := range deliveries {
		got[del.MAC] = true
	}
	if !got[0x12] || !got[0x13] {
		t.Errorf("deliveries before the stop: %v, want hosts 0x12 and 0x13", got)
	}
	if len(net.Deliveries) != 0 {
		t.Error("Send left deliveries queued instead of returning them")
	}
	// Round 2's floods punted again on the ring; the stop drops them.
	if pump.Dropped() == 0 || len(net.PacketIns) != 0 {
		t.Errorf("early stop: Dropped = %d, %d punts queued; want > 0 and 0",
			pump.Dropped(), len(net.PacketIns))
	}
}

func TestPumpUnknownHost(t *testing.T) {
	net, err := LinearTopology(1)
	if err != nil {
		t.Fatal(err)
	}
	var pump Pump
	if _, err := pump.Send(net, 0x99, Packet{}, func([]Event) bool {
		t.Error("round called for a packet that was never injected")
		return true
	}); !errors.Is(err, ErrNoHost) {
		t.Errorf("want ErrNoHost, got %v", err)
	}
}
