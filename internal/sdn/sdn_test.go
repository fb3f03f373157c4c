package sdn

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"sdnbugs/internal/openflow"
)

func TestFlowTableMatchSemantics(t *testing.T) {
	var tbl FlowTable
	tbl.Add(FlowEntry{Priority: 1, Match: openflow.Match{}, Actions: []openflow.Action{{Type: openflow.ActionDrop}}})
	tbl.Add(FlowEntry{Priority: 10, Match: openflow.Match{EthDst: 0x22},
		Actions: []openflow.Action{{Type: openflow.ActionOutput, Port: 2}}})
	tbl.Add(FlowEntry{Priority: 5, Match: openflow.Match{EthType: 0x0806},
		Actions: []openflow.Action{{Type: openflow.ActionOutput, Port: openflow.PortFlood}}})

	// Highest priority wins.
	e := tbl.Lookup(Packet{EthDst: 0x22, EthType: 0x0806}, 1)
	if e == nil || e.Priority != 10 {
		t.Fatalf("lookup = %+v, want priority 10", e)
	}
	// Fallthrough to wildcard.
	e = tbl.Lookup(Packet{EthDst: 0x99}, 1)
	if e == nil || e.Priority != 1 {
		t.Fatalf("wildcard lookup = %+v", e)
	}
	// In-port matching.
	tbl.Add(FlowEntry{Priority: 20, Match: openflow.Match{MatchInPort: true, InPort: 7}})
	if e := tbl.Lookup(Packet{}, 7); e == nil || e.Priority != 20 {
		t.Error("in-port match failed")
	}
	if e := tbl.Lookup(Packet{}, 8); e != nil && e.Priority == 20 {
		t.Error("in-port mismatch matched")
	}
}

func TestFlowTableAddReplaceDelete(t *testing.T) {
	var tbl FlowTable
	m := openflow.Match{EthDst: 0x11}
	tbl.Add(FlowEntry{Priority: 5, Match: m, Actions: []openflow.Action{{Type: openflow.ActionOutput, Port: 1}}})
	tbl.Add(FlowEntry{Priority: 5, Match: m, Actions: []openflow.Action{{Type: openflow.ActionOutput, Port: 9}}})
	if tbl.Len() != 1 {
		t.Fatalf("replace failed, len = %d", tbl.Len())
	}
	if e := tbl.Lookup(Packet{EthDst: 0x11}, 1); e.Actions[0].Port != 9 {
		t.Error("replacement did not take effect")
	}
	if n := tbl.Delete(m); n != 1 {
		t.Errorf("deleted %d, want 1", n)
	}
	if tbl.Len() != 0 {
		t.Error("table not empty after delete")
	}
}

func TestFlowTableDeterministicProperty(t *testing.T) {
	// Same packet, same table => same result, always.
	var tbl FlowTable
	tbl.Add(FlowEntry{Priority: 3, Match: openflow.Match{EthType: 1}})
	tbl.Add(FlowEntry{Priority: 3, Match: openflow.Match{VlanID: 2}})
	f := func(dst uint64, ethType, vlan uint16, port uint32) bool {
		p := Packet{EthDst: dst, EthType: ethType, VlanID: vlan}
		a := tbl.Lookup(p, port)
		b := tbl.Lookup(p, port)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketCodecRoundTrip(t *testing.T) {
	f := func(src, dst uint64, ethType, vlan uint16, payload []byte) bool {
		p := Packet{
			EthSrc: src & 0xffffffffffff, EthDst: dst & 0xffffffffffff,
			EthType: ethType, VlanID: vlan, Payload: payload,
		}
		got, err := DecodePacket(encodePacket(p))
		if err != nil {
			return false
		}
		if got.EthSrc != p.EthSrc || got.EthDst != p.EthDst ||
			got.EthType != p.EthType || got.VlanID != p.VlanID {
			return false
		}
		if len(got.Payload) != len(p.Payload) {
			return false
		}
		for i := range got.Payload {
			if got.Payload[i] != p.Payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := DecodePacket([]byte{1, 2}); err == nil {
		t.Error("want error for short packet")
	}
}

func TestSwitchPorts(t *testing.T) {
	sw := NewSwitch(1, 4)
	if !sw.PortUp(1) || !sw.PortUp(4) {
		t.Error("ports should start up")
	}
	if sw.PortUp(0) || sw.PortUp(5) {
		t.Error("out-of-range ports must report down")
	}
	if err := sw.SetPort(2, false); err != nil {
		t.Fatal(err)
	}
	if sw.PortUp(2) {
		t.Error("port 2 should be down")
	}
	if err := sw.SetPort(9, false); err == nil {
		t.Error("want error for bad port")
	}
	sw.Table.Add(FlowEntry{Priority: 1})
	sw.Reboot()
	if sw.Table.Len() != 0 || !sw.PortUp(2) {
		t.Error("reboot should clear table and restore ports")
	}
}

func newRunningController(t *testing.T, nSwitches int) (*Controller, *hostDriver) {
	t.Helper()
	net, err := LinearTopology(nSwitches)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnvironment("influxdb", "atomix")
	app := NewL2Switch(map[string]int{"influxdb": 1, "atomix": 1})
	c := NewController(net, env, app)
	return c, &hostDriver{c: c}
}

func TestLearningSwitchSingleSwitch(t *testing.T) {
	c, d := newRunningController(t, 1)
	net := c.Net
	// Two extra hosts on switch 1? Linear topology gives 1 host/switch;
	// use a custom network for the single-switch case.
	net = NewNetwork()
	net.AddSwitch(1, 4)
	for i := uint32(1); i <= 3; i++ {
		if err := net.AddHost(uint64(0x20+i), PortRef{1, i}); err != nil {
			t.Fatal(err)
		}
	}
	c.Net = net

	// Unknown destination floods to everyone.
	got, err := d.broadcast(0x21)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0x22] || !got[0x23] || len(got) != 2 {
		t.Errorf("broadcast deliveries: %v", got)
	}
	// After learning, unicast reaches exactly the destination.
	ok, err := d.ping(0x22, 0x21)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("ping 0x22 -> 0x21 failed")
	}
	// The flow is now installed: dataplane handles it without punts.
	sw, _ := net.Switch(1)
	if sw.Table.Len() == 0 {
		t.Error("no flows installed")
	}
	net.DrainPacketIns()
	if _, err := net.InjectFromHost(0x22, Packet{EthDst: 0x21}); err != nil {
		t.Fatal(err)
	}
	if len(net.PacketIns) != 0 {
		t.Error("installed flow should forward without punting")
	}
}

func TestLearningSwitchAcrossLine(t *testing.T) {
	c, d := newRunningController(t, 3)
	rep, err := d.fullConnectivity()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reachable != rep.Pairs {
		t.Errorf("connectivity %d/%d", rep.Reachable, rep.Pairs)
	}
	if !rep.BroadcastOK {
		t.Error("broadcast incomplete")
	}
	if c.State != StateRunning {
		t.Errorf("controller state %v", c.State)
	}
}

func TestPortDownForgetsHosts(t *testing.T) {
	c, d := newRunningController(t, 2)
	if ok, _ := d.ping(0x11, 0x12); !ok {
		// learn both ways first
		t.Fatal("initial ping failed")
	}
	if ok, _ := d.ping(0x12, 0x11); !ok {
		t.Fatal("reverse ping failed")
	}
	// Take down host 0x12's port (switch 2, port 1).
	err := c.Submit(Event{Kind: EventNetwork, Msg: &openflow.PortStatus{
		DatapathID: 2, Port: 1, Reason: 2, Up: false,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := d.ping(0x11, 0x12); ok {
		t.Error("ping should fail with destination port down")
	}
	// Bring it back: reactive re-learning restores connectivity.
	err = c.Submit(Event{Kind: EventNetwork, Msg: &openflow.PortStatus{
		DatapathID: 2, Port: 1, Reason: 2, Up: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := d.ping(0x12, 0x11); !ok {
		t.Error("recovery ping failed")
	}
}

func TestConfigValidation(t *testing.T) {
	c, _ := newRunningController(t, 1)
	if err := c.Submit(Event{Kind: EventConfig, Key: "vlan.office", Value: "100"}); err != nil {
		t.Fatal(err)
	}
	if c.Config["vlan.office"] != "100" {
		t.Error("config not applied")
	}
	// Invalid VLAN logs an error but does not crash.
	if err := c.Submit(Event{Kind: EventConfig, Key: "vlan.bad", Value: "9999"}); err != nil {
		t.Fatal(err)
	}
	if c.Stats.ErrorsLogged == 0 {
		t.Error("invalid config should log an error")
	}
	if _, ok := c.Config["vlan.bad"]; ok {
		t.Error("invalid config must not be applied")
	}
	if c.State != StateRunning {
		t.Error("controller should keep running")
	}
}

func TestExternalCallVersionCheck(t *testing.T) {
	c, _ := newRunningController(t, 1)
	if err := c.Submit(Event{Kind: EventExternalCall, Service: "influxdb"}); err != nil {
		t.Fatal(err)
	}
	if c.Stats.ErrorsLogged != 0 {
		t.Error("matching version should not error")
	}
	// Upgrade the live service under the controller: API mismatch.
	c.Env.Versions["influxdb"] = 2
	if err := c.Submit(Event{Kind: EventExternalCall, Service: "influxdb"}); err != nil {
		t.Fatal(err)
	}
	if c.Stats.ErrorsLogged != 1 {
		t.Errorf("version mismatch should log an error, got %d", c.Stats.ErrorsLogged)
	}
	// Unknown service.
	if err := c.Submit(Event{Kind: EventExternalCall, Service: "nosuch"}); err != nil {
		t.Fatal(err)
	}
	if c.Stats.ErrorsLogged != 2 {
		t.Error("unknown service should log an error")
	}
}

func TestHardwareReboot(t *testing.T) {
	c, d := newRunningController(t, 2)
	// Ping both ways so unicast flows install (reactive learning needs
	// the destination MAC seen as a source first).
	if ok, _ := d.ping(0x11, 0x12); !ok {
		t.Fatal("setup ping failed")
	}
	if ok, _ := d.ping(0x12, 0x11); !ok {
		t.Fatal("reverse setup ping failed")
	}
	sw, _ := c.Net.Switch(1)
	if sw.Table.Len() == 0 {
		t.Fatal("expected flows before reboot")
	}
	if err := c.Submit(Event{Kind: EventHardwareReboot, DPID: 1}); err != nil {
		t.Fatal(err)
	}
	if sw.Table.Len() != 0 {
		t.Error("reboot should clear the flow table")
	}
	// Reactive forwarding re-converges.
	if ok, _ := d.ping(0x11, 0x12); !ok {
		t.Error("ping after reboot failed")
	}
}

func TestControllerCrashSemantics(t *testing.T) {
	crashApp := appFunc(func(c *Controller, ev Event) (int, error) {
		return 1, ErrCrash
	})
	net, _ := LinearTopology(1)
	c := NewController(net, NewEnvironment(), crashApp)
	err := c.Submit(Event{Kind: EventConfig, Key: "x", Value: "y"})
	if err == nil || !errors.Is(err, ErrCrash) {
		t.Fatalf("want ErrCrash, got %v", err)
	}
	if c.State != StateCrashed {
		t.Errorf("state = %v, want crashed", c.State)
	}
	if err := c.Submit(Event{Kind: EventConfig}); !errors.Is(err, ErrNotRunning) {
		t.Errorf("dead controller should reject events: %v", err)
	}
	if c.Stats.EventsDropped != 1 {
		t.Errorf("dropped = %d", c.Stats.EventsDropped)
	}
}

// appFunc adapts a function to the App interface for tests.
type appFunc func(*Controller, Event) (int, error)

func (appFunc) Name() string                                       { return "test-app" }
func (f appFunc) HandleEvent(c *Controller, ev Event) (int, error) { return f(c, ev) }

func TestStallDetection(t *testing.T) {
	slow := appFunc(func(c *Controller, ev Event) (int, error) {
		return 5000, nil // huge logical cost => stall
	})
	net, _ := LinearTopology(1)
	c := NewController(net, NewEnvironment(), slow)
	if err := c.Submit(Event{Kind: EventConfig}); err != nil {
		t.Fatal(err)
	}
	if c.State != StateStalled {
		t.Errorf("state = %v, want stalled", c.State)
	}
}

func TestMiddlewareOrderAndRestart(t *testing.T) {
	var order []string
	mw := func(tag string) Middleware {
		return func(next HandlerFunc) HandlerFunc {
			return func(c *Controller, ev Event) (int, error) {
				order = append(order, tag)
				return next(c, ev)
			}
		}
	}
	net, _ := LinearTopology(1)
	app := NewL2Switch(nil)
	c := NewController(net, NewEnvironment(), app, mw("outer"), mw("inner"))
	if err := c.Submit(Event{Kind: EventConfig, Key: "a", Value: "b"}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Errorf("middleware order = %v", order)
	}
	if len(c.Log) != 1 {
		t.Errorf("log length = %d", len(c.Log))
	}
	c.State = StateCrashed
	c.Restart(true)
	if c.State != StateRunning || len(c.Log) != 1 {
		t.Error("restart with keepLog should preserve log and run")
	}
	c.Restart(false)
	if len(c.Log) != 0 {
		t.Error("restart without keepLog should clear log")
	}
}

func TestLinearTopologyErrors(t *testing.T) {
	if _, err := LinearTopology(0); err == nil {
		t.Error("want error for 0 switches")
	}
	net := NewNetwork()
	if _, err := net.Switch(9); !errors.Is(err, ErrNoSwitch) {
		t.Errorf("want ErrNoSwitch, got %v", err)
	}
	if err := net.AddHost(1, PortRef{9, 1}); !errors.Is(err, ErrNoSwitch) {
		t.Errorf("want ErrNoSwitch, got %v", err)
	}
	if _, err := net.InjectFromHost(42, Packet{}); !errors.Is(err, ErrNoHost) {
		t.Errorf("want ErrNoHost, got %v", err)
	}
	net.AddSwitch(1, 2)
	if err := net.AddLink(PortRef{1, 1}, PortRef{2, 1}); !errors.Is(err, ErrBadLink) {
		t.Errorf("want ErrBadLink, got %v", err)
	}
	if err := net.AddLink(PortRef{1, 5}, PortRef{1, 1}); !errors.Is(err, ErrBadLink) {
		t.Errorf("want ErrBadLink for bad port, got %v", err)
	}
}

func TestLoopSafety(t *testing.T) {
	// Two switches connected by two parallel links and a flood rule:
	// the hop bound must terminate the walk.
	net := NewNetwork()
	net.AddSwitch(1, 4)
	net.AddSwitch(2, 4)
	if err := net.AddLink(PortRef{1, 2}, PortRef{2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink(PortRef{1, 3}, PortRef{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHost(0x31, PortRef{1, 1}); err != nil {
		t.Fatal(err)
	}
	for _, dpid := range []uint64{1, 2} {
		sw, _ := net.Switch(dpid)
		sw.Table.Add(FlowEntry{Priority: 1, Match: openflow.Match{},
			Actions: []openflow.Action{{Type: openflow.ActionOutput, Port: openflow.PortFlood}}})
	}
	// Must return (bounded), not hang.
	if _, err := net.InjectFromHost(0x31, Packet{EthDst: 0x99}); err != nil {
		t.Fatal(err)
	}
}

func TestSetVlanAction(t *testing.T) {
	net := NewNetwork()
	net.AddSwitch(1, 2)
	if err := net.AddHost(0x41, PortRef{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHost(0x42, PortRef{1, 2}); err != nil {
		t.Fatal(err)
	}
	sw, _ := net.Switch(1)
	sw.Table.Add(FlowEntry{
		Priority: 5,
		Match:    openflow.Match{EthDst: 0x42},
		Actions: []openflow.Action{
			{Type: openflow.ActionSetVlan, Vlan: 77},
			{Type: openflow.ActionOutput, Port: 2},
		},
	})
	deliveries, err := net.InjectFromHost(0x41, Packet{EthDst: 0x42, VlanID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(deliveries) != 1 {
		t.Fatalf("deliveries = %d", len(deliveries))
	}
	if deliveries[0].Packet.VlanID != 77 {
		t.Errorf("vlan = %d, want 77 (SetVlan should rewrite)", deliveries[0].Packet.VlanID)
	}
}

func TestDropAction(t *testing.T) {
	net := NewNetwork()
	net.AddSwitch(1, 2)
	if err := net.AddHost(0x41, PortRef{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHost(0x42, PortRef{1, 2}); err != nil {
		t.Fatal(err)
	}
	sw, _ := net.Switch(1)
	sw.Table.Add(FlowEntry{
		Priority: 9,
		Match:    openflow.Match{EthDst: 0x42},
		Actions:  []openflow.Action{{Type: openflow.ActionDrop}},
	})
	deliveries, err := net.InjectFromHost(0x41, Packet{EthDst: 0x42})
	if err != nil {
		t.Fatal(err)
	}
	if len(deliveries) != 0 {
		t.Errorf("drop rule leaked %d deliveries", len(deliveries))
	}
	if len(net.PacketIns) != 0 {
		t.Error("dropped packet must not punt")
	}
}

func TestNoReflectionOutIngressPort(t *testing.T) {
	// A flow whose output port equals the ingress port must not send
	// the packet back where it came from (OpenFlow's OFPP_IN_PORT rule).
	net := NewNetwork()
	net.AddSwitch(1, 2)
	net.AddSwitch(2, 2)
	if err := net.AddLink(PortRef{1, 2}, PortRef{2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHost(0x51, PortRef{1, 1}); err != nil {
		t.Fatal(err)
	}
	sw2, _ := net.Switch(2)
	// Pathological rule: send everything back out port 1 (its ingress).
	sw2.Table.Add(FlowEntry{Priority: 1, Match: openflow.Match{},
		Actions: []openflow.Action{{Type: openflow.ActionOutput, Port: 1}}})
	sw1, _ := net.Switch(1)
	sw1.Table.Add(FlowEntry{Priority: 1, Match: openflow.Match{},
		Actions: []openflow.Action{{Type: openflow.ActionOutput, Port: 2}}})
	if _, err := net.InjectFromHost(0x51, Packet{EthDst: 0x99}); err != nil {
		t.Fatal(err)
	}
	// The packet dies at switch 2 rather than ping-ponging; nothing
	// returns to switch 1 and no host sees it.
	if len(net.Deliveries) != 0 {
		t.Errorf("unexpected deliveries: %+v", net.Deliveries)
	}
}

func TestAddHostRejectsBadPort(t *testing.T) {
	net := NewNetwork()
	net.AddSwitch(1, 2)
	for _, port := range []uint32{0, 3} {
		if err := net.AddHost(0x61, PortRef{1, port}); err == nil {
			t.Errorf("AddHost on port %d of a 2-port switch: want error", port)
		}
	}
	if hosts := net.Hosts(); len(hosts) != 0 {
		t.Errorf("rejected hosts were registered: %v", hosts)
	}
	if err := net.AddHost(0x61, PortRef{1, 2}); err != nil {
		t.Fatalf("AddHost on port 2: %v", err)
	}
}

// Registering a datapath id again keeps the links and hosts wired to
// its ports, on both ends of each link.
func TestAddSwitchAgainKeepsWiring(t *testing.T) {
	net, err := LinearTopology(3)
	if err != nil {
		t.Fatal(err)
	}
	net.AddSwitch(2, 3)
	got, err := (&hostDriver{c: NewController(net, NewEnvironment(), NewL2Switch(nil))}).fullConnectivity()
	if err != nil {
		t.Fatal(err)
	}
	if got.Reachable != got.Pairs || !got.BroadcastOK {
		t.Fatalf("after re-registering switch 2: %+v, want full reachability", got)
	}
}

// DrainDeliveries hands back the network's own buffer and keeps it
// for the next deliveries, while DrainPacketIns still hands its slice
// over: later punts never overwrite a drained slice.
func TestDrainReusesDeliveriesAndHandsOverPunts(t *testing.T) {
	net, err := LinearTopology(2)
	if err != nil {
		t.Fatal(err)
	}
	punt := func() {
		t.Helper()
		if _, err := net.InjectFromHost(0x11, Packet{EthDst: BroadcastMAC}); err != nil {
			t.Fatal(err)
		}
	}
	punt()
	sw, _ := net.Switch(2)
	sw.Table.Add(FlowEntry{Priority: 1, Match: openflow.Match{EthDst: 0x12},
		Actions: []openflow.Action{{Type: openflow.ActionOutput, Port: 1}}})
	deliver := func() {
		t.Helper()
		if _, err := net.ApplyPacketOut(openflow.PacketOut{DatapathID: 2, InPort: 2,
			Actions: []openflow.Action{{Type: openflow.ActionOutput, Port: 1}},
			Data:    EncodePacket(Packet{EthSrc: 0x11, EthDst: 0x12})}); err != nil {
			t.Fatal(err)
		}
	}
	deliver()
	if len(net.PacketIns) == 0 || len(net.Deliveries) == 0 {
		t.Fatalf("setup: %d punts, %d deliveries", len(net.PacketIns), len(net.Deliveries))
	}
	delCap := cap(net.Deliveries)
	got := net.DrainDeliveries()
	if len(got) != 1 || got[0].MAC != 0x12 {
		t.Fatalf("drained %+v, want one delivery to 0x12", got)
	}
	if len(net.Deliveries) != 0 || cap(net.Deliveries) != delCap {
		t.Fatalf("after DrainDeliveries: len %d cap %d, want len 0 cap %d",
			len(net.Deliveries), cap(net.Deliveries), delCap)
	}
	deliver()
	if &net.Deliveries[0] != &got[0] {
		t.Fatal("the next delivery did not reuse the drained buffer")
	}
	net.DrainPacketIns()
	punt()
	drained := net.DrainPacketIns()
	want := append([]openflow.PacketIn(nil), drained...)
	punt()
	if !reflect.DeepEqual(drained, want) {
		t.Fatal("a later punt overwrote a drained slice")
	}
}

// Once every MAC is learned and every flow installed, a primary's
// traffic slot (inject, forward, drain the deliveries) allocates
// nothing: the delivery buffer is reused across slots.
func TestSteadyStateSlotDrainAllocatesNothing(t *testing.T) {
	_, d := newRunningController(t, 3)
	if _, err := d.fullConnectivity(); err != nil {
		t.Fatal(err)
	}
	var reached int
	allocs := testing.AllocsPerRun(100, func() {
		deliveries, err := d.send(0x11, Packet{EthDst: 0x13, EthType: 0x0800})
		if err != nil {
			t.Fatal(err)
		}
		reached = len(deliveries)
	})
	if reached != 1 {
		t.Fatalf("unicast reached %d hosts, want 1", reached)
	}
	if allocs != 0 {
		t.Fatalf("steady-state slot: %.1f allocs, want 0", allocs)
	}
}
