// The dataplane half of the bench matrix: zero-alloc OpenFlow codec
// micro-benches, the end-to-end controller pipeline pair — per-event
// ReadMessage+Submit against FrameReader.ReadBatch + ProcessBatch —
// reporting packets/sec, and the 3-replica ensemble slot. The
// encode/decode benches and the ensemble bench double as the CI
// allocation gate (`make bench-dataplane-smoke`): any steady-state
// codec allocation fails, and so does an ensemble slot above its
// measured heap objects per punt. This file sorts before
// bench_test.go, so the rows recorded here are present when the suite
// benchmarks persist BENCH_JSON.
package sdnbugs

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"sdnbugs/internal/cluster"
	"sdnbugs/internal/ofconn"
	"sdnbugs/internal/openflow"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/supervise"
)

// pipelinePackets is how many punted packets each pipeline iteration
// pushes through decode + controller submission — several ReadBatch
// rounds, so batching amortization is actually exercised.
const pipelinePackets = 512

// dataplaneMessages is a representative switch-to-controller mix for
// the codec micro-benches.
func dataplaneMessages() []openflow.Message {
	return []openflow.Message{
		&openflow.Hello{},
		&openflow.EchoRequest{Data: []byte("ping-0123")},
		&openflow.PacketIn{DatapathID: 7, InPort: 3, Reason: 1, Data: bytes.Repeat([]byte{0x5a}, 48)},
		&openflow.PacketOut{DatapathID: 7, InPort: 2,
			Actions: []openflow.Action{{Type: openflow.ActionOutput, Port: 4}},
			Data:    bytes.Repeat([]byte{0xa5}, 48)},
		&openflow.FlowMod{DatapathID: 7, Command: openflow.FlowAdd, Priority: 10, IdleTimeout: 60,
			Match: openflow.Match{MatchInPort: true, InPort: 3, EthDst: 0x0a0b0c0d0e0f, EthType: 0x0800},
			Actions: []openflow.Action{
				{Type: openflow.ActionOutput, Port: 1},
				{Type: openflow.ActionSetVlan, Vlan: 7},
			}},
	}
}

// BenchmarkOpenFlowEncode measures AppendEncode over the message mix
// and fails on any steady-state allocation.
func BenchmarkOpenFlowEncode(b *testing.B) {
	msgs := dataplaneMessages()
	buf := make([]byte, 0, 4096)
	encodeAll := func() {
		buf = buf[:0]
		var err error
		for j, m := range msgs {
			if buf, err = openflow.AppendEncode(buf, m, uint32(j+1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeAll()
	}
	b.StopTimer()
	nsPerMsg := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(msgs))
	allocs := testing.AllocsPerRun(100, encodeAll) / float64(len(msgs))
	if allocs != 0 {
		b.Fatalf("AppendEncode steady state: %v allocs/msg, want 0", allocs)
	}
	recordDataplane(benchDataplane{Name: "openflow_encode", NsPerOp: nsPerMsg, AllocsPerOp: allocs})
}

// BenchmarkOpenFlowDecode measures the zero-copy Codec.Decode that
// ofconn.FrameReader runs, over the same mix, with the same zero-alloc
// gate.
func BenchmarkOpenFlowDecode(b *testing.B) {
	msgs := dataplaneMessages()
	var stream []byte
	var bounds []int
	for j, m := range msgs {
		var err error
		if stream, err = openflow.AppendEncode(stream, m, uint32(j+1)); err != nil {
			b.Fatal(err)
		}
		bounds = append(bounds, len(stream))
	}
	codec := openflow.NewZeroCopyCodec()
	decodeAll := func() {
		start := 0
		for _, end := range bounds {
			if _, _, _, err := codec.Decode(stream[start:end]); err != nil {
				b.Fatal(err)
			}
			start = end
		}
	}
	decodeAll() // warm the codec scratch so AllocsPerRun sees steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeAll()
	}
	b.StopTimer()
	nsPerMsg := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(msgs))
	allocs := testing.AllocsPerRun(100, decodeAll) / float64(len(msgs))
	if allocs != 0 {
		b.Fatalf("Codec.Decode steady state: %v allocs/msg, want 0", allocs)
	}
	recordDataplane(benchDataplane{Name: "openflow_decode", NsPerOp: nsPerMsg, AllocsPerOp: allocs})
}

// countApp is the minimal reactive app for the pipeline benches: it
// touches the punted message, as any real handler would, and charges
// one tick.
type countApp struct{ seen int }

func (*countApp) Name() string { return "bench-count" }

func (a *countApp) HandleEvent(c *sdn.Controller, ev sdn.Event) (int, error) {
	if pi, ok := ev.Msg.(*openflow.PacketIn); ok && pi.InPort > 0 {
		a.seen++
	}
	return 1, nil
}

// packetInStream pre-encodes n punts as one contiguous wire stream.
func packetInStream(n int) []byte {
	payload := bytes.Repeat([]byte{0xab}, 64)
	var buf []byte
	var err error
	for i := 0; i < n; i++ {
		pi := &openflow.PacketIn{DatapathID: uint64(i%4 + 1), InPort: uint32(i%3 + 1), Data: payload}
		if buf, err = openflow.AppendEncode(buf, pi, uint32(i+1)); err != nil {
			panic(err)
		}
	}
	return buf
}

// pipelineTransport gives both pipeline benches a real kernel pipe, so
// the baseline pays the per-read syscalls it pays in production — the
// cost the batched reader exists to amortize. The writer goroutine
// plays the switch, pushing one full punt burst per iteration.
func pipelineTransport(b *testing.B, stream []byte) (*os.File, func()) {
	b.Helper()
	pr, pw, err := os.Pipe()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		pr.Close()
		pw.Close()
	})
	burst := func() {
		go pw.Write(stream)
	}
	return pr, burst
}

// BenchmarkControllerEventsSerial is the pre-batching pipeline, one
// punt at a time exactly as Conn.Recv consumed the wire: two
// transport reads per message (header, then body), a freshly
// allocated owned message, one Submit per punt.
func BenchmarkControllerEventsSerial(b *testing.B) {
	stream := packetInStream(pipelinePackets)
	app := &countApp{}
	c := sdn.NewController(sdn.NewNetwork(), sdn.NewEnvironment(), app)
	pr, burst := pipelineTransport(b, stream)
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Restart(false)
		burst()
		for n := 0; n < pipelinePackets; n++ {
			msg, _, err := openflow.ReadMessage(pr)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Submit(sdn.Event{Kind: sdn.EventNetwork, Msg: msg}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if want := b.N * pipelinePackets; app.seen != want {
		b.Fatalf("serial pipeline handled %d punts, want %d", app.seen, want)
	}
	pps := float64(b.N*pipelinePackets) / b.Elapsed().Seconds()
	b.ReportMetric(pps, "packets/sec")
	recordDataplane(benchDataplane{Name: "controller_events_serial", PacketsPerSec: pps,
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N*pipelinePackets)})
}

// BenchmarkControllerEventsBatched is the batched pipeline: ReadBatch
// drains every buffered frame per fill (zero-copy decode through the
// codec ring) and ProcessBatch submits the whole round against one
// pre-reserved log region. The log only grows between Restarts here,
// so retaining zero-copy messages in it stays within the
// valid-until-next-ReadBatch contract: nothing re-reads them.
func BenchmarkControllerEventsBatched(b *testing.B) {
	stream := packetInStream(pipelinePackets)
	app := &countApp{}
	c := sdn.NewController(sdn.NewNetwork(), sdn.NewEnvironment(), app)
	pr, burst := pipelineTransport(b, stream)
	fr := ofconn.NewFrameReader(pr)
	frames := make([]ofconn.Frame, 0, 64)
	events := make([]sdn.Event, 0, 64)
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Restart(false)
		burst()
		for done := 0; done < pipelinePackets; {
			var err error
			if frames, err = fr.ReadBatch(frames[:0]); err != nil {
				b.Fatal(err)
			}
			events = events[:0]
			for j := range frames {
				events = append(events, sdn.Event{Kind: sdn.EventNetwork, Msg: frames[j].Msg})
			}
			if _, err := c.ProcessBatch(events); err != nil {
				b.Fatal(err)
			}
			done += len(frames)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if want := b.N * pipelinePackets; app.seen != want {
		b.Fatalf("batched pipeline handled %d punts, want %d", app.seen, want)
	}
	pps := float64(b.N*pipelinePackets) / b.Elapsed().Seconds()
	b.ReportMetric(pps, "packets/sec")
	recordDataplane(benchDataplane{Name: "controller_events_batched", PacketsPerSec: pps,
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N*pipelinePackets)})
	if serial := dataplaneRate("controller_events_serial"); serial > 0 {
		speedup := pps / serial
		b.ReportMetric(speedup, "vs_serial")
		// The batched path's contract: at least 2x the per-event
		// pipeline. Gate it so a regression fails the smoke run.
		if speedup < 2.0 {
			b.Fatalf("batched pipeline %.0f packets/sec is only %.2fx serial (%.0f), want >= 2x",
				pps, speedup, serial)
		}
	}
}

// The ensemble bench's topology and slot size mirror perfbench
// flowsetup: a line of 4 switches with 16 hosts each (ports 1..16,
// port 17 towards the lower dpid, port 18 towards the higher), 10 %
// broadcast punts, and one EndSlot per 64-punt read batch.
const (
	ensembleSwitches  = 4
	ensembleHosts     = 16
	ensembleSlotPunts = 64
	ensembleMaxPump   = 32
	// ensembleAllocsPerPunt gates BenchmarkEnsembleSlot: heap objects
	// per punt across Submit, the re-punt pump and EndSlot on all
	// three replicas, measured with the prepared punts owned up front
	// (0.76 measured: the primary's re-punt bytes and packet-in
	// slices; standby replays forward nothing).
	ensembleAllocsPerPunt = 0.8
	// ensembleBytesPerPunt gates the heap bytes per punt over the timed
	// runs, almost all of them the event log's geometric growth. With
	// standbys adopting the primary's log only the primary's array
	// grows: 562 B/punt measured at -benchtime 200x and 742 at 1x,
	// where one regrowth falls in the single timed run. 800 holds both
	// and still fails three replicas each growing a copy (1,466 at
	// 200x).
	ensembleBytesPerPunt = 800
)

func ensembleHostMAC(d, p int) uint64 { return uint64(d)<<8 | uint64(p) }

// ensembleNetwork builds one replica's copy of the line topology.
func ensembleNetwork() (*sdn.Network, error) {
	n := sdn.NewNetwork()
	for d := 1; d <= ensembleSwitches; d++ {
		n.AddSwitch(uint64(d), ensembleHosts+2)
		for p := 1; p <= ensembleHosts; p++ {
			if err := n.AddHost(ensembleHostMAC(d, p), sdn.PortRef{DPID: uint64(d), Port: uint32(p)}); err != nil {
				return nil, err
			}
		}
	}
	for d := 1; d < ensembleSwitches; d++ {
		if err := n.AddLink(sdn.PortRef{DPID: uint64(d), Port: ensembleHosts + 2},
			sdn.PortRef{DPID: uint64(d + 1), Port: ensembleHosts + 1}); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// ensemblePunts draws n owned table-miss punts from a fixed seed: a
// random source host and, for 90 % of them, a random other host as
// destination.
func ensemblePunts(n int) []sdn.Event {
	rng := rand.New(rand.NewSource(1))
	events := make([]sdn.Event, n)
	for i := range events {
		d, p := 1+rng.Intn(ensembleSwitches), 1+rng.Intn(ensembleHosts)
		pkt := sdn.Packet{EthSrc: ensembleHostMAC(d, p), EthDst: sdn.BroadcastMAC, EthType: 0x0806}
		if rng.Float64() >= 0.10 {
			for pkt.EthDst == sdn.BroadcastMAC || pkt.EthDst == pkt.EthSrc {
				pkt.EthDst = ensembleHostMAC(1+rng.Intn(ensembleSwitches), 1+rng.Intn(ensembleHosts))
			}
			pkt.EthType = 0x0800
		}
		events[i] = sdn.Event{Kind: sdn.EventNetwork, Msg: &openflow.PacketIn{
			DatapathID: uint64(d), InPort: uint32(p), Data: sdn.EncodePacket(pkt)}}
	}
	return events
}

// BenchmarkEnsembleSlot is the replicated controller path perfbench
// flowsetup runs, without the wire: each 64-punt slot submits every
// punt to a 3-replica cluster.Ensemble of L2Switch, pumps the
// primary's re-punts, drains its deliveries and calls EndSlot, which
// replays the slot on both standbys. It reports ns, heap objects and
// heap bytes per punt and fails above ensembleAllocsPerPunt or
// ensembleBytesPerPunt.
func BenchmarkEnsembleSlot(b *testing.B) {
	ens, err := cluster.New(cluster.Config{Factory: func() (*sdn.Controller, error) {
		n, err := ensembleNetwork()
		if err != nil {
			return nil, err
		}
		return sdn.NewController(n, sdn.NewEnvironment(), sdn.NewL2Switch(nil)), nil
	}})
	if err != nil {
		b.Fatal(err)
	}
	punts := ensemblePunts(pipelinePackets)
	submit := func(ev sdn.Event) {
		if out := ens.Submit(ev); out != supervise.OutcomeProcessed {
			b.Fatalf("ensemble submit: %v", out)
		}
	}
	run := func() {
		for s := 0; s < len(punts); s += ensembleSlotPunts {
			for _, ev := range punts[s : s+ensembleSlotPunts] {
				submit(ev)
				net := ens.Primary().C.Net
				for round := 0; round < ensembleMaxPump; round++ {
					pis := net.DrainPacketIns()
					if len(pis) == 0 {
						break
					}
					for j := range pis {
						submit(sdn.Event{Kind: sdn.EventNetwork, Msg: &pis[j]})
					}
				}
			}
			ens.Primary().C.Net.DrainDeliveries()
			ens.EndSlot()
		}
	}
	run() // learn every MAC and install the flows before timing
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if !ens.Converged() {
		b.Fatal("standbys did not converge")
	}
	nsPerPunt := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(punts))
	// A fixed run count keeps the gated figure independent of b.N.
	allocs := testing.AllocsPerRun(20, run) / float64(len(punts))
	bytesPerPunt := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N*len(punts))
	b.ReportMetric(nsPerPunt, "ns/punt")
	b.ReportMetric(allocs, "allocs/punt")
	b.ReportMetric(bytesPerPunt, "B/punt")
	recordDataplane(benchDataplane{Name: "ensemble_slot", NsPerOp: nsPerPunt, AllocsPerOp: allocs})
	if allocs > ensembleAllocsPerPunt {
		b.Fatalf("ensemble slot: %.2f allocs/punt, want <= %.2f", allocs, ensembleAllocsPerPunt)
	}
	if bytesPerPunt > ensembleBytesPerPunt {
		b.Fatalf("ensemble slot: %.0f B/punt, want <= %d", bytesPerPunt, ensembleBytesPerPunt)
	}
}
