//go:build !race

package supervise

import (
	"testing"

	"sdnbugs/internal/openflow"
	"sdnbugs/internal/resilience"
	"sdnbugs/internal/sdn"
)

// A healthy Submit into a pre-grown log allocates nothing: the event
// is copied to the heap only on the fail-stop branch, and the perf
// probe's cost window slides in place.
func TestSubmitHealthyZeroAlloc(t *testing.T) {
	const runs = 200
	c := sdn.NewController(sdn.NewNetwork(), sdn.NewEnvironment(), &scriptApp{})
	s := New(c, Config{
		Budget:   resilience.NewBudget(0, 0),
		Failover: func(*sdn.Event) bool { return false },
	})
	ev := sdn.Event{Kind: sdn.EventNetwork, Msg: &openflow.PacketIn{DatapathID: 1, InPort: 2}}
	for i := 0; i < 2*perfWindow; i++ {
		s.Submit(ev) // fill the cost window
	}
	c.ReserveLog(runs + 1)
	allocs := testing.AllocsPerRun(runs, func() {
		if out := s.Submit(ev); out != OutcomeProcessed {
			t.Fatalf("outcome %v", out)
		}
	})
	if allocs != 0 {
		t.Fatalf("healthy Submit: %v allocs/op, want 0", allocs)
	}
}
