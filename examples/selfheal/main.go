// Selfheal: a narrated walk through the supervised runtime — wrap a
// controller carrying a transient crash fault and a deterministic
// poison input in the supervisor, watch a fail-stop get healed by
// restart-and-retry, watch the poison class get shed after repeated
// failed recoveries, then see a checkpoint shrink the next restart.
//
//	go run ./examples/selfheal
package main

import (
	"fmt"
	"os"

	"sdnbugs/internal/faultlab"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/supervise"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "selfheal:", err)
		os.Exit(1)
	}
}

func pick(seed int64, name string) *faultlab.Fault {
	for _, f := range faultlab.StandardSuite(seed) {
		if f.Spec.Name == name {
			return f
		}
	}
	panic("unknown fault " + name)
}

func run() error {
	// Two faults armed at once: a slow memory leak that eventually
	// fail-stops (transient — a restart clears it) and the
	// deterministic multicast-config poison crash.
	lab, err := faultlab.NewLab(
		pick(1, "ONOS-4859-memory-leak"),
		pick(1, "CORD-2470-misconfig-crash"),
	)
	if err != nil {
		return err
	}

	sup := supervise.New(lab.C, supervise.Config{
		BaselineMeanCost: lab.BaselineMeanCost(),
		CheckpointEvery:  8,
		Classify:         faultlab.ClassifyEvent,
		OnRestart:        lab.NewIncarnations,
	})

	submit := func(label string, ev sdn.Event) {
		out := sup.Submit(ev)
		fmt.Printf("  %-34s -> %-9s (state=%s, restarts=%d)\n",
			label, out, lab.C.State, sup.Metrics.Restarts)
	}

	fmt.Println("1. Healthy traffic builds state and periodic checkpoints:")
	for i := 0; i < 10; i++ {
		submit(fmt.Sprintf("config vlan.zone%d=100", i),
			sdn.Event{Kind: sdn.EventConfig, Key: fmt.Sprintf("vlan.zone%d", i), Value: "100"})
	}
	fmt.Printf("  checkpoints taken: %d\n\n", sup.Metrics.Checkpoints)

	fmt.Println("2. Traffic leaks memory until the controller fail-stops; the")
	fmt.Println("   supervisor restarts from the checkpoint and retries the event:")
	hosts := lab.C.Net.Hosts()
	var pump sdn.Pump
	for i := 0; i < 20; i++ {
		src, dst := hosts[i%len(hosts)], hosts[(i+1)%len(hosts)]
		_, err := pump.Send(lab.C.Net, src, sdn.Packet{EthDst: dst, EthType: 0x0800}, func(events []sdn.Event) bool {
			for _, ev := range events {
				healedBefore := sup.Metrics.EventsHealed
				out := sup.Submit(ev)
				if sup.Metrics.EventsHealed > healedBefore {
					fmt.Printf("  packet-in %-23s -> %-9s (restarts=%d, from checkpoint=%d)\n",
						fmt.Sprintf("(crash on #%d)", i), out,
						sup.Metrics.Restarts, sup.Metrics.CheckpointRestores)
				}
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	fmt.Printf("  healed: %d of %d offered (lost: %d)\n\n",
		sup.Metrics.EventsHealed, sup.Metrics.EventsOffered, sup.Metrics.EventsLost)

	fmt.Println("3. A deterministic poison config keeps crashing; after the")
	fmt.Println("   degradation threshold its class is shed, not the whole feed:")
	for i := 0; i < 3; i++ {
		submit("config multicast.group1=225",
			sdn.Event{Kind: sdn.EventConfig, Key: "multicast.group1", Value: "225"})
	}
	fmt.Printf("  shed classes: %v\n", sup.ShedClasses())
	submit("config vlan.zone0=200 (sibling class)",
		sdn.Event{Kind: sdn.EventConfig, Key: "vlan.zone0", Value: "200"})

	m := sup.Metrics
	fmt.Printf("\nFinal: availability %.3f, %d incidents, %d restarts "+
		"(%d from checkpoint, %d cold), MTTR %.1f ticks\n",
		m.EventAvailability(), m.Incidents, m.Restarts,
		m.CheckpointRestores, m.ColdRestores, m.MTTR())
	if !sup.Alive() {
		return fmt.Errorf("controller died under supervision")
	}
	return nil
}
