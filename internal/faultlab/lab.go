package faultlab

import (
	"errors"
	"fmt"

	"sdnbugs/internal/sdn"
	"sdnbugs/internal/taxonomy"
)

// Lab is one fault-injection experiment: a topology, an environment,
// a controller whose code carries the injected fault, and a canonical
// workload with symptom detectors.
type Lab struct {
	pumper
	Fault *Fault
	C     *sdn.Controller

	// Faults lists every armed fault when the lab runs a multi-fault
	// campaign (see NewMultiLab); single-fault labs leave it nil and
	// use Fault alone.
	Faults []*Fault

	// baselineMeanCost is the healthy mean event cost, measured with
	// the fault disabled, for the performance detector.
	baselineMeanCost float64

	// Filter, when set, rewrites or drops workload events before
	// submission — the handle input-transforming recovery strategies
	// (STS-style) use to keep the system clear of poison inputs.
	Filter func(sdn.Event) (sdn.Event, bool)

	// Guard, when set, is consulted after every submitted event; when
	// it returns true the lab rejuvenates the controller (restart +
	// fresh fault incarnation) before the next event — the hook
	// metrics-based failure-prediction strategies use (the paper's
	// §IV research direction on predicting load/memory crashes).
	Guard func(*sdn.Controller) bool
}

// topologySize is the number of switches in the lab's line topology.
const topologySize = 3

// services are the external services in the lab environment.
var services = []string{"influxdb", "atomix"}

// NewLab builds a lab around the fault.
func NewLab(f *Fault) (*Lab, error) { return newLab(&Lab{Fault: f}) }

// NewMultiLab builds a lab with every fault of the slice armed at
// once — the sustained-campaign substrate, where the taxonomy's fault
// classes interleave instead of being studied one at a time.
func NewMultiLab(faults []*Fault) (*Lab, error) {
	if len(faults) == 0 {
		return nil, errors.New("faultlab: multi lab needs at least one fault")
	}
	return newLab(&Lab{Fault: faults[0], Faults: faults})
}

// newLab measures the healthy baseline with every armed fault switched
// off (before building, so environment tampering is not applied
// either), then rebuilds with the faults armed; the first faulty run
// is still incarnation 0.
func newLab(lab *Lab) (*Lab, error) {
	for _, f := range lab.armed() {
		f.Disabled = true
	}
	if err := lab.build(); err != nil {
		return nil, err
	}
	obs, err := lab.RunWorkload()
	if err != nil {
		return nil, fmt.Errorf("faultlab: baseline run: %w", err)
	}
	if obs.Symptom != taxonomy.SymptomUnknown {
		return nil, fmt.Errorf("faultlab: baseline not healthy: observed %v", obs.Symptom)
	}
	lab.baselineMeanCost = lab.C.Stats.MeanEventCost()
	for _, f := range lab.armed() {
		f.Disabled = false
		f.resetState()
	}
	if err := lab.build(); err != nil {
		return nil, err
	}
	return lab, nil
}

// BaselineMeanCost is the healthy mean event cost measured during lab
// construction (with every fault disabled).
func (l *Lab) BaselineMeanCost() float64 { return l.baselineMeanCost }

// armed returns the lab's fault set (the single Fault when Faults is
// unset).
func (l *Lab) armed() []*Fault {
	if len(l.Faults) > 0 {
		return l.Faults
	}
	return []*Fault{l.Fault}
}

// NewIncarnations informs every armed fault that the controller
// restarted.
func (l *Lab) NewIncarnations() {
	for _, f := range l.armed() {
		f.NewIncarnation()
	}
}

// build (re)creates network, environment and controller with the fault
// installed. The fault object itself survives — it is the bug in the
// code.
func (l *Lab) build() error {
	c, err := newController(l.armed())
	if err != nil {
		return err
	}
	l.C = c
	return nil
}

// newController builds the lab topology, environment and L2 switch
// app, with every fault armed in the environment and installed as
// middleware. With no faults it is the clean controller the cluster
// campaign replicates: failures there are induced externally, never
// inside the controller, so replicas replaying one log converge
// byte-identically.
func newController(faults []*Fault) (*sdn.Controller, error) {
	net, err := sdn.LinearTopology(topologySize)
	if err != nil {
		return nil, err
	}
	env := sdn.NewEnvironment(services...)
	expected := map[string]int{}
	for _, s := range services {
		expected[s] = env.Versions[s]
	}
	mws := make([]sdn.Middleware, len(faults))
	for i, f := range faults {
		f.ArmEnvironment(env)
		mws[i] = f.Middleware()
	}
	return sdn.NewController(net, env, sdn.NewL2Switch(expected), mws...), nil
}

// Rebuild replaces the controller/network with fresh instances (same
// fault), as a failover to a cold replica would. The old event log is
// returned for replay-based strategies.
func (l *Lab) Rebuild() ([]sdn.Event, error) {
	log := l.C.Log
	l.NewIncarnations()
	if err := l.build(); err != nil {
		return nil, err
	}
	return log, nil
}

// Observation is the outcome of a workload run.
type Observation struct {
	// Symptom is the detected failure class (SymptomUnknown = healthy).
	Symptom taxonomy.Symptom
	// Detail is a human-readable diagnosis.
	Detail string
	// Connectivity is the fraction of host pairs reachable.
	Connectivity float64
	// BroadcastOK reports whether broadcast flooding worked.
	BroadcastOK bool
}

// Healthy reports whether no symptom was observed.
func (o Observation) Healthy() bool { return o.Symptom == taxonomy.SymptomUnknown }

// workloadEvents is the canonical non-packet event script: config
// pushes (including the multicast stanza that poisons misconfig
// faults), external telemetry calls, and a device reboot.
func workloadEvents() []sdn.Event {
	return []sdn.Event{
		{Kind: sdn.EventConfig, Key: "vlan.office", Value: "100"},
		{Kind: sdn.EventConfig, Key: "flood.enabled", Value: "true"},
		{Kind: sdn.EventExternalCall, Service: "influxdb"},
		{Kind: sdn.EventConfig, Key: "multicast.group", Value: "225"},
		{Kind: sdn.EventExternalCall, Service: "atomix"},
		{Kind: sdn.EventHardwareReboot, DPID: 2},
		{Kind: sdn.EventConfig, Key: "vlan.lab", Value: "200"},
		{Kind: sdn.EventExternalCall, Service: "influxdb"},
	}
}

// submit routes an event through the lab filter then the controller.
func (l *Lab) submit(ev sdn.Event) error {
	if l.Filter != nil {
		rewritten, keep := l.Filter(ev)
		if !keep {
			return nil
		}
		ev = rewritten
	}
	err := l.C.Submit(ev)
	if errors.Is(err, sdn.ErrCrash) || errors.Is(err, sdn.ErrNotRunning) {
		return nil // crash is an observation, not a harness error
	}
	if err == nil && l.Guard != nil && l.C.State != sdn.StateCrashed && l.Guard(l.C) {
		// Proactive rejuvenation: restart before the predicted failure.
		l.NewIncarnations()
		l.C.Restart(false)
	}
	return err
}

// RunWorkload drives the canonical workload and detects the symptom.
// The workload interleaves management events with traffic, then checks
// full connectivity and broadcast health.
func (l *Lab) RunWorkload() (Observation, error) {
	events := workloadEvents()
	hosts := l.C.Net.Hosts()
	if len(hosts) < 2 {
		return Observation{}, errors.New("faultlab: workload needs hosts")
	}

	// Interleave: management event, then a traffic exchange.
	pair := 0
	for _, ev := range events {
		if err := l.submit(ev); err != nil {
			return Observation{}, err
		}
		src := hosts[pair%len(hosts)]
		dst := hosts[(pair+1)%len(hosts)]
		pair++
		if l.C.State != sdn.StateCrashed {
			// A unicast exchange, a broadcast, and the mirror-VLAN
			// broadcast that poisons deterministic network faults.
			for _, k := range []SlotKind{SlotUnicast, SlotBroadcast, SlotMirrorBroadcast} {
				if _, err := l.pumpSlot(Slot{Kind: k, Src: src, Dst: dst}); err != nil {
					return Observation{}, err
				}
			}
		}
	}
	return l.Observe()
}

// pumpSlot is Driver.SendPacket for a traffic slot, but honouring the
// lab filter for the resulting packet-in events. It stops at a crash
// or a harness error.
func (l *Lab) pumpSlot(s Slot) ([]sdn.Delivery, error) {
	var err error
	deliveries, ierr := l.pump(l.C.Net, s.Src, s.packet(), func(events []sdn.Event) bool {
		l.C.ReserveLog(len(events))
		for _, ev := range events {
			if l.C.State == sdn.StateCrashed {
				return false
			}
			if err = l.submit(ev); err != nil {
				return false
			}
		}
		return true
	})
	if ierr != nil {
		return nil, ierr
	}
	return deliveries, err
}

// Observe runs the detectors against the controller's current state,
// ordered by severity: fail-stop, stalling, performance, byzantine
// (behavioural check), then error messages.
func (l *Lab) Observe() (Observation, error) {
	c := l.C
	if c.State == sdn.StateCrashed {
		return Observation{Symptom: taxonomy.SymptomFailStop, Detail: "controller crashed"}, nil
	}
	if c.State == sdn.StateStalled || c.Stats.MaxEventCost >= 1000 {
		return Observation{Symptom: taxonomy.SymptomByzantine,
			Detail: "controller stalled (byzantine: stalling)"}, nil
	}
	if l.baselineMeanCost > 0 && c.Stats.MeanEventCost() > 4*l.baselineMeanCost {
		return Observation{Symptom: taxonomy.SymptomPerformance,
			Detail: fmt.Sprintf("mean event cost %.1f vs baseline %.1f",
				c.Stats.MeanEventCost(), l.baselineMeanCost)}, nil
	}

	// Behavioural check: connectivity and broadcast.
	obs := Observation{}
	rep, err := l.connectivity()
	if err != nil {
		return Observation{}, err
	}
	if c.State == sdn.StateCrashed {
		// Crash during the probe traffic itself.
		return Observation{Symptom: taxonomy.SymptomFailStop, Detail: "controller crashed during probe"}, nil
	}
	obs.Connectivity = float64(rep.Reachable) / float64(rep.Pairs)
	obs.BroadcastOK = rep.BroadcastOK
	if obs.Connectivity < 1 || !obs.BroadcastOK {
		obs.Symptom = taxonomy.SymptomByzantine
		obs.Detail = fmt.Sprintf("connectivity %.0f%%, broadcast ok = %v",
			obs.Connectivity*100, obs.BroadcastOK)
		return obs, nil
	}
	if c.Stats.ErrorsLogged > 0 {
		obs.Symptom = taxonomy.SymptomErrorMessage
		obs.Detail = fmt.Sprintf("%d errors logged", c.Stats.ErrorsLogged)
		return obs, nil
	}
	return obs, nil
}

// connectivity is Driver.FullConnectivity but pumped through the lab
// filter.
func (l *Lab) connectivity() (sdn.ConnectivityReport, error) {
	hosts := l.C.Net.Hosts()
	var rep sdn.ConnectivityReport
	for _, src := range hosts {
		if _, err := l.pumpSlot(Slot{Kind: SlotBroadcast, Src: src}); err != nil {
			return rep, err
		}
	}
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			rep.Pairs++
			deliveries, err := l.pumpSlot(Slot{Kind: SlotUnicast, Src: src, Dst: dst})
			if err != nil {
				return rep, err
			}
			for _, del := range deliveries {
				if del.MAC == dst {
					rep.Reachable++
					break
				}
			}
		}
	}
	// Broadcast must work on the default VLAN and on the mirror VLAN
	// (the gray failure of FAUCET-1623 breaks only the latter).
	for _, k := range []SlotKind{SlotBroadcast, SlotMirrorBroadcast} {
		got, err := l.pumpSlot(Slot{Kind: k, Src: hosts[0]})
		if err != nil {
			return rep, err
		}
		if distinctHosts(got) != len(hosts)-1 {
			rep.BroadcastOK = false
			return rep, nil
		}
	}
	rep.BroadcastOK = true
	return rep, nil
}

// PoisonSignatures describes, per trigger, the input pattern that a
// transform-based recovery can filter. These are the handles STS-style
// tools search for by delta debugging.
func PoisonSignature(trigger taxonomy.Trigger) func(sdn.Event) bool {
	switch trigger {
	case taxonomy.TriggerNetworkEvent:
		return isMirrorBroadcast
	case taxonomy.TriggerConfiguration:
		return isMulticastConfig
	case taxonomy.TriggerExternalCall:
		return func(ev sdn.Event) bool { return ev.Kind == sdn.EventExternalCall }
	case taxonomy.TriggerHardwareReboot:
		return func(ev sdn.Event) bool { return ev.Kind == sdn.EventHardwareReboot }
	default:
		return func(sdn.Event) bool { return false }
	}
}

// ClearHealth resets the controller's health counters (stats, error
// log, stall state) without touching functional state — called after a
// recovery attempt so the post-recovery workload is judged on fresh
// evidence. A crashed controller stays crashed.
func (l *Lab) ClearHealth() {
	if l.C.State == sdn.StateCrashed {
		return
	}
	l.C.Stats = sdn.Stats{}
	l.C.ErrorLog = nil
	l.C.State = sdn.StateRunning
}
