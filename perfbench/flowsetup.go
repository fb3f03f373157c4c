package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"sdnbugs/internal/cluster"
	"sdnbugs/internal/ofconn"
	"sdnbugs/internal/openflow"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/supervise"
)

// Fixed parameters of the flowsetup workload.
const (
	fsReplicas       = 3
	fsSwitches       = 4
	fsHostsPerSwitch = 16
	// fsRate is the open-loop punt rate, about a fifth of the
	// saturation rate on a 2-core host, so latency reflects service
	// time rather than queueing.
	fsRate           = 25_000.0
	fsBroadcastShare = 0.10
	// fsWindowSecs is the length of one open-loop latency window.
	fsWindowSecs = 1.0
	// fsBurst is the punt count of one closed-loop saturation burst.
	fsBurst = 50_000
	// fsSetups is how many times set-up (ensemble build, mastership
	// handoff, handshake and pre-encoding one window) is timed.
	fsSetups = 9
	// fsMaxPumpRounds bounds the re-punt pump per wire punt, as
	// sdn.Driver bounds its control loop.
	fsMaxPumpRounds = 32
)

// hostMAC names the host on port p of switch d.
func hostMAC(d, p int) uint64 { return uint64(d)<<8 | uint64(p) }

// lineNetwork builds fsSwitches switches in a line, each with
// fsHostsPerSwitch hosts on ports 1..16; port 17 links towards the
// lower dpid and port 18 towards the higher one.
func lineNetwork() (*sdn.Network, error) {
	n := sdn.NewNetwork()
	for d := 1; d <= fsSwitches; d++ {
		n.AddSwitch(uint64(d), fsHostsPerSwitch+2)
		for p := 1; p <= fsHostsPerSwitch; p++ {
			if err := n.AddHost(hostMAC(d, p), sdn.PortRef{DPID: uint64(d), Port: uint32(p)}); err != nil {
				return nil, err
			}
		}
	}
	for d := 1; d < fsSwitches; d++ {
		if err := n.AddLink(
			sdn.PortRef{DPID: uint64(d), Port: fsHostsPerSwitch + 2},
			sdn.PortRef{DPID: uint64(d + 1), Port: fsHostsPerSwitch + 1}); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// puntLoad is a pre-encoded run of PacketIn frames; frame i has xid i
// and occupies buf[offs[i]:offs[i+1]].
type puntLoad struct {
	buf  []byte
	offs []int
}

func (l puntLoad) n() int { return len(l.offs) - 1 }

// genPunts draws n table-miss punts from the seed: a random source host
// and, for all but fsBroadcastShare of them, a random other host as
// destination.
func genPunts(seed int64, n int) (puntLoad, error) {
	rng := rand.New(rand.NewSource(seed))
	l := puntLoad{buf: make([]byte, 0, n*40), offs: make([]int, 0, n+1)}
	for i := 0; i < n; i++ {
		d, p := 1+rng.Intn(fsSwitches), 1+rng.Intn(fsHostsPerSwitch)
		pkt := sdn.Packet{EthSrc: hostMAC(d, p), EthDst: sdn.BroadcastMAC, EthType: 0x0806}
		if rng.Float64() >= fsBroadcastShare {
			for pkt.EthDst == sdn.BroadcastMAC || pkt.EthDst == pkt.EthSrc {
				pkt.EthDst = hostMAC(1+rng.Intn(fsSwitches), 1+rng.Intn(fsHostsPerSwitch))
			}
			pkt.EthType = 0x0800
		}
		l.offs = append(l.offs, len(l.buf))
		var err error
		l.buf, err = openflow.AppendEncode(l.buf, &openflow.PacketIn{
			DatapathID: uint64(d), InPort: uint32(p), Data: sdn.EncodePacket(pkt),
		}, uint32(i))
		if err != nil {
			return puntLoad{}, err
		}
	}
	l.offs = append(l.offs, len(l.buf))
	return l, nil
}

// ownPacketIn copies a zero-copy PacketIn out of the frame reader's
// ring. The replica logs keep every event, so the controller must own
// what it submits.
func ownPacketIn(pi *openflow.PacketIn) *openflow.PacketIn {
	cp := *pi
	cp.Data = bytes.Clone(pi.Data)
	return &cp
}

// flowStats are the per-layer sums of a traced flowsetup phase.
type flowStats struct {
	reads, frames         int
	readNS                time.Duration
	submits               int // events submitted to the ensemble
	submitNS              time.Duration
	appNS                 [fsReplicas]time.Duration // inside each replica's app
	appEvents             [fsReplicas]int
	primaryAppInSubmitNS  time.Duration
	endSlotNS             time.Duration
	shipped               int // primary log growth replicated by EndSlot
	wirePunts, failedOuts int
}

// flowRig is one fresh ensemble behind one TCP loopback switch
// connection that has completed the ofconn handshake.
type flowRig struct {
	ens *cluster.Ensemble
	ctl net.Conn // controller end
	sw  net.Conn // switch end, written by the emulator
	fr  *ofconn.FrameReader
	tr  *tracer
	st  flowStats
	own func(*openflow.PacketIn) *openflow.PacketIn
}

// timing wraps each replica's app so the traced run can split app time
// from the ensemble's own work. The controller loop is single-threaded,
// so the sums need no locking.
func (r *flowRig) timing(replica int) sdn.Middleware {
	return func(next sdn.HandlerFunc) sdn.HandlerFunc {
		return func(c *sdn.Controller, ev sdn.Event) (int, error) {
			t := time.Now()
			cost, err := next(c, ev)
			r.st.appNS[replica] += time.Since(t)
			r.st.appEvents[replica]++
			return cost, err
		}
	}
}

// newFlowRig builds the ensemble (replica 0 takes mastership of every
// switch), connects the switch emulator over loopback TCP, and runs the
// ofconn handshake and features exchange.
func newFlowRig(tr *tracer) (*flowRig, error) {
	r := &flowRig{tr: tr, own: ownPacketIn}
	built := 0
	ens, err := cluster.New(cluster.Config{
		Replicas: fsReplicas,
		Factory: func() (*sdn.Controller, error) {
			n, err := lineNetwork()
			if err != nil {
				return nil, err
			}
			var mw []sdn.Middleware
			if tr != nil {
				mw = append(mw, r.timing(built))
			}
			built++
			return sdn.NewController(n, sdn.NewEnvironment(), sdn.NewL2Switch(nil), mw...), nil
		},
	})
	if err != nil {
		return nil, err
	}
	r.ens = ens
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	type dialed struct {
		c   net.Conn
		err error
	}
	ch := make(chan dialed, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			n, nerr := lineNetwork()
			if nerr != nil {
				err = nerr
			} else {
				err = (&ofconn.SwitchAgent{Conn: ofconn.New(c), Net: n, DPID: 1}).Start()
			}
		}
		ch <- dialed{c, err}
	}()
	ctl, err := ln.Accept()
	if err != nil {
		d := <-ch
		if d.c != nil {
			d.c.Close()
		}
		return nil, err
	}
	aerr := (&ofconn.ControllerSession{Conn: ofconn.New(ctl)}).Accept()
	d := <-ch
	if err := errors.Join(aerr, d.err); err != nil {
		ctl.Close()
		if d.c != nil {
			d.c.Close()
		}
		return nil, fmt.Errorf("flowsetup handshake: %w", err)
	}
	r.ctl, r.sw = ctl, d.c
	r.fr = ofconn.NewFrameReader(ctl)
	return r, nil
}

func (r *flowRig) close() {
	r.ctl.Close()
	r.sw.Close()
}

// submit routes one event to the ensemble and counts an outcome other
// than processed as a failed operation.
func (r *flowRig) submit(ev sdn.Event, req int64) {
	var t0 time.Time
	var app0 time.Duration
	if r.tr != nil {
		t0 = time.Now()
		app0 = r.st.appNS[r.ens.Primary().ID]
	}
	out := r.ens.Submit(ev)
	if r.tr != nil {
		t1 := time.Now()
		r.st.submits++
		r.st.submitNS += t1.Sub(t0)
		r.st.primaryAppInSubmitNS += r.st.appNS[r.ens.Primary().ID] - app0
		r.tr.record("cluster.submit", -1, req, t0, t1)
	}
	if out != supervise.OutcomeProcessed {
		r.st.failedOuts++
	}
}

// serve runs the controller loop until n wire punts have been handled:
// read a batch, copy each frame into an owned message, submit it and
// pump the primary's re-punts until the dataplane is quiet, drain
// deliveries, and replicate with EndSlot. done receives each punt's
// xid and the time its batch was replicated.
func (r *flowRig) serve(n int, done func(xid int, t time.Time)) error {
	frames := make([]ofconn.Frame, 0, 64)
	events := make([]sdn.Event, 0, 64)
	xids := make([]int, 0, 64)
	for handled := 0; handled < n; {
		var t0 time.Time
		if r.tr != nil {
			t0 = time.Now()
		}
		var err error
		frames, err = r.fr.ReadBatch(frames[:0])
		if err != nil {
			return fmt.Errorf("flowsetup read: %w", err)
		}
		events, xids = events[:0], xids[:0]
		for _, f := range frames {
			pi, ok := f.Msg.(*openflow.PacketIn)
			if !ok {
				return fmt.Errorf("flowsetup: unexpected %v frame", f.Msg.Type())
			}
			events = append(events, sdn.Event{Kind: sdn.EventNetwork, Msg: r.own(pi)})
			xids = append(xids, int(f.Xid))
		}
		batchReq := int64(xids[0])
		if r.tr != nil {
			t1 := time.Now()
			r.st.reads++
			r.st.frames += len(frames)
			r.st.readNS += t1.Sub(t0)
			r.tr.record("ofconn.read_batch", -1, batchReq, t0, t1)
		}
		logBefore := len(r.ens.Primary().C.Log)
		for i, ev := range events {
			req := int64(xids[i])
			r.submit(ev, req)
			cnet := r.ens.Primary().C.Net
			for round := 0; round < fsMaxPumpRounds; round++ {
				pis := cnet.DrainPacketIns()
				if len(pis) == 0 {
					break
				}
				for j := range pis {
					r.submit(sdn.Event{Kind: sdn.EventNetwork, Msg: &pis[j]}, req)
				}
			}
		}
		r.ens.Primary().C.Net.DrainDeliveries()
		var t2 time.Time
		if r.tr != nil {
			t2 = time.Now()
		}
		r.ens.EndSlot()
		now := time.Now()
		if r.tr != nil {
			r.st.endSlotNS += now.Sub(t2)
			r.st.shipped += len(r.ens.Primary().C.Log) - logBefore
			r.tr.record("cluster.end_slot", -1, batchReq, t2, now)
		}
		for _, x := range xids {
			done(x, now)
		}
		handled += len(frames)
		r.st.wirePunts += len(frames)
	}
	return nil
}

// checkReplicas is the flowsetup correctness gate: after Sync every
// replica's state fingerprint equals the primary's, nothing was lost,
// and the primary's state equals a single controller that processed
// the generated punts directly, so a replica log holding aliased (not
// owned) frames cannot pass.
func (r *flowRig) checkReplicas(load puntLoad) error {
	if err := r.ens.Sync(); err != nil {
		return err
	}
	if lost := r.ens.Metrics.Lost; lost != 0 {
		return fmt.Errorf("flowsetup: ensemble lost %d events", lost)
	}
	want := cluster.StateFingerprint(r.ens.Primary().C)
	for _, rep := range r.ens.Reps {
		if got := cluster.StateFingerprint(rep.C); got != want {
			return fmt.Errorf("flowsetup: replica %d fingerprint %s != primary %s", rep.ID, got, want)
		}
	}
	ref, err := referenceController(load)
	if err != nil {
		return err
	}
	if got := cluster.StateFingerprint(ref); got != want {
		return fmt.Errorf("flowsetup: primary fingerprint %s != reference %s", want, got)
	}
	return nil
}

// referenceController replays the generated punts, decoded into owned
// messages, through one unreplicated controller with the same pump.
func referenceController(load puntLoad) (*sdn.Controller, error) {
	n, err := lineNetwork()
	if err != nil {
		return nil, err
	}
	c := sdn.NewController(n, sdn.NewEnvironment(), sdn.NewL2Switch(nil))
	for i := 0; i < load.n(); i++ {
		msg, _, _, err := openflow.Decode(load.buf[load.offs[i]:load.offs[i+1]])
		if err != nil {
			return nil, err
		}
		if err := c.Submit(sdn.Event{Kind: sdn.EventNetwork, Msg: msg}); err != nil {
			return nil, err
		}
		for round := 0; round < fsMaxPumpRounds; round++ {
			pis := n.DrainPacketIns()
			if len(pis) == 0 {
				break
			}
			for j := range pis {
				if err := c.Submit(sdn.Event{Kind: sdn.EventNetwork, Msg: &pis[j]}); err != nil {
					return nil, err
				}
			}
		}
		n.DrainDeliveries()
	}
	return c, nil
}

// sendOpenLoop writes each punt when it falls due, batching whatever is
// due at each wake-up into one write.
func sendOpenLoop(w net.Conn, load puntLoad, ol *openLoop) error {
	free := time.Now()
	for sent := 0; sent < load.n(); {
		now := time.Now()
		due := min(ol.sched.dueBy(now), load.n())
		if due <= sent {
			time.Sleep(ol.sched.due(sent).Sub(now))
			continue
		}
		for i := sent; i < due; i++ {
			ol.sentAt(i, now, free)
		}
		if _, err := w.Write(load.buf[load.offs[sent]:load.offs[due]]); err != nil {
			return err
		}
		free = time.Now()
		sent = due
	}
	return nil
}

// flowPhase runs one phase on a fresh rig: send runs on the emulator
// goroutine while the controller loop serves every punt.
func flowPhase(r *flowRig, load puntLoad, send func() error, done func(int, time.Time)) error {
	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sendErr = send()
	}()
	err := r.serve(load.n(), done)
	if err != nil {
		// Unblock a sender stuck on a full socket.
		r.close()
	}
	wg.Wait()
	return errors.Join(err, sendErr)
}

// latencyWindow runs one open-loop window at fsRate on a fresh rig and
// returns the rig, the window's timings, and the allocation and GC
// figures of the window itself (not of its correctness check).
func latencyWindow(cfg runConfig, load puntLoad) (*flowRig, *openLoop, runtimeCounters, error) {
	r, err := newFlowRig(cfg.tr)
	if err != nil {
		return nil, nil, runtimeCounters{}, err
	}
	ol := newOpenLoop(newSchedule(time.Now().Add(5*time.Millisecond), fsRate), load.n())
	before := readRuntimeCounters()
	err = flowPhase(r, load, func() error { return sendOpenLoop(r.sw, load, ol) }, ol.doneAt)
	rc := readRuntimeCounters().sub(before)
	if err == nil {
		err = ol.validate()
	}
	if err == nil {
		err = r.checkReplicas(load)
	}
	r.close()
	return r, ol, rc, err
}

// saturationBurst pushes one burst back to back through a fresh rig
// and returns the rig and the burst's wall time.
func saturationBurst(cfg runConfig, burst puntLoad, check bool) (*flowRig, float64, error) {
	r, err := newFlowRig(cfg.tr)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	err = flowPhase(r, burst, func() error {
		_, err := r.sw.Write(burst.buf)
		return err
	}, func(int, time.Time) {})
	wall := time.Since(t0).Seconds()
	if err == nil && check {
		err = r.checkReplicas(burst)
	} else if err == nil && r.ens.Metrics.Lost != 0 {
		err = fmt.Errorf("flowsetup: ensemble lost %d events", r.ens.Metrics.Lost)
	}
	r.close()
	return r, wall, err
}

// runFlowsetup spends half its budget on open-loop latency windows and
// half on closed-loop saturation bursts. Each window and burst gets a
// fresh ensemble, so the replica logs — which grow without bound —
// hold at most one window's events and every window sees the same
// heap.
func runFlowsetup(cfg runConfig) (outcome, error) {
	phaseSecs := cfg.seconds / 2
	windows := max(1, int(phaseSecs/fsWindowSecs+0.5))
	loads := make([]puntLoad, windows)
	var setups []float64
	for i := 0; i < fsSetups; i++ {
		t0 := time.Now()
		r, err := newFlowRig(nil)
		if err != nil {
			return outcome{}, err
		}
		r.close()
		if loads[0], err = genPunts(cfg.seed*64, int(fsRate*fsWindowSecs)); err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	for w := 1; w < windows; w++ {
		var err error
		if loads[w], err = genPunts(cfg.seed*64+int64(w), int(fsRate*fsWindowSecs)); err != nil {
			return outcome{}, err
		}
	}
	out := outcome{e2e: map[string]float64{}, layer: map[string]float64{}}

	var latency, late []float64
	var rc runtimeCounters
	logEvents := 0
	for _, load := range loads {
		r, ol, wrc, err := latencyWindow(cfg, load)
		if err != nil {
			return outcome{}, err
		}
		rc.allocObjects += wrc.allocObjects
		rc.gcPauseSec += wrc.gcPauseSec
		latency = append(latency, ol.latencies()...)
		late = append(late, ol.late...)
		out.attempted += int64(r.st.wirePunts)
		out.failed += int64(r.st.failedOuts)
		logEvents = len(r.ens.Primary().C.Log)
	}
	out.e2e["latency_p50_us"] = windowedPercentile(latency, windows, 50)
	out.layer["latency.p90_us"] = windowedPercentile(latency, windows, 90)
	out.layer["latency.p99_us"] = windowedPercentile(latency, windows, 99)
	out.layer["gen.late_p99_us"], _ = tailPercentile(late, 99)
	out.layer["alloc.objects_per_punt"] = float64(rc.allocObjects) / float64(len(latency))
	out.layer["gc.pause_ms"] = rc.gcPauseSec * 1000 / float64(windows)
	out.layer["cluster.log_events"] = float64(logEvents)

	burst, err := genPunts(cfg.seed*64+63, fsBurst)
	if err != nil {
		return outcome{}, err
	}
	var walls []float64
	var sat flowStats
	deadline := time.Now().Add(time.Duration(phaseSecs * float64(time.Second)))
	for len(walls) < 3 || time.Now().Before(deadline) {
		r, wall, err := saturationBurst(cfg, burst, len(walls) == 0)
		if err != nil {
			return outcome{}, err
		}
		walls = append(walls, wall)
		out.attempted += int64(r.st.wirePunts)
		out.failed += int64(r.st.failedOuts)
		sat.add(r.st)
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["wall_s"] = median(walls)
	out.e2e["saturation_per_s"] = fsBurst / median(walls)
	if cfg.tr != nil {
		sat.layers(out.layer)
	}
	return out, nil
}

func (s *flowStats) add(o flowStats) {
	s.reads += o.reads
	s.frames += o.frames
	s.readNS += o.readNS
	s.submits += o.submits
	s.submitNS += o.submitNS
	for i := range s.appNS {
		s.appNS[i] += o.appNS[i]
		s.appEvents[i] += o.appEvents[i]
	}
	s.primaryAppInSubmitNS += o.primaryAppInSubmitNS
	s.endSlotNS += o.endSlotNS
	s.shipped += o.shipped
	s.wirePunts += o.wirePunts
}

// layers turns the saturation phase's sums into per-layer figures.
// Replica 0 is the primary throughout: no fault ever deposes it.
func (s flowStats) layers(m map[string]float64) {
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	m["ofconn.read_ns_per_frame"] = per(s.readNS, s.frames)
	if s.reads > 0 {
		m["ofconn.frames_per_read"] = float64(s.frames) / float64(s.reads)
	}
	m["sdn.app_ns_per_event"] = per(s.appNS[0], s.appEvents[0])
	var standbyNS time.Duration
	var standbyEvents int
	for i := 1; i < fsReplicas; i++ {
		standbyNS += s.appNS[i]
		standbyEvents += s.appEvents[i]
	}
	m["sdn.standby_app_ns_per_event"] = per(standbyNS, standbyEvents)
	if s.wirePunts > 0 {
		m["sdn.events_per_punt"] = float64(s.submits) / float64(s.wirePunts)
	}
	m["cluster.submit_self_ns_per_event"] = per(s.submitNS-s.primaryAppInSubmitNS, s.submits)
	m["cluster.replicate_ns_per_event"] = per(s.endSlotNS, s.shipped)
}
