package supervise

import (
	"fmt"
	"testing"

	"sdnbugs/internal/resilience"
	"sdnbugs/internal/sdn"
)

// keyClassify buckets scripted config events by key so one poisoned
// key sheds alone while healthy config traffic keeps flowing.
func keyClassify(ev sdn.Event) string {
	if ev.Kind == sdn.EventConfig && ev.Key == "poison" {
		return "poison"
	}
	return "healthy"
}

// TestShedPersistsUntilLifted is the regression test for the silent
// un-shedding hazard: once a class is shed, nothing implicit — budget
// deposits from later successes, checkpoints, a checkpoint restore
// after a crash — may re-admit it. Only an explicit LiftShed does.
func TestShedPersistsUntilLifted(t *testing.T) {
	app := &scriptApp{crashes: map[string]int{"poison": -1}}
	var shed []string
	s := newScripted(app, Config{
		CheckpointEvery: 4,
		Budget:          resilience.NewBudget(8, 1.0),
		Classify:        keyClassify,
		OnShed:          func(class string) { shed = append(shed, class) },
	})
	if out := s.Submit(cfgEvent("poison", "1")); out != OutcomeDegraded {
		t.Fatalf("outcome = %v, want degraded", out)
	}
	if len(shed) != 1 || shed[0] != "poison" {
		t.Fatalf("OnShed fired %v, want exactly [poison]", shed)
	}

	// Healthy traffic replenishes the restart budget and rolls
	// checkpoints; an external crash then forces a checkpoint restore.
	for i := 0; i < 20; i++ {
		s.Submit(cfgEvent(fmt.Sprintf("vlan.%d", i), "1"))
	}
	s.C.State = sdn.StateCrashed
	if out := s.Submit(cfgEvent("after-crash", "1")); out != OutcomeHealed {
		t.Fatalf("post-crash submit = %v, want healed", out)
	}
	if s.Metrics.CheckpointRestores == 0 {
		t.Fatal("scenario never exercised a checkpoint restore")
	}

	if !s.ClassShed("poison") {
		t.Fatal("shed silently lifted by budget deposits / checkpoint restore")
	}
	if _, keep := s.Filter(cfgEvent("poison", "2")); keep {
		t.Fatal("Filter passed a shed class after restore")
	}
	if len(shed) != 1 {
		t.Fatalf("OnShed re-fired for an already-shed class: %v", shed)
	}

	// Only the explicit lift re-admits the class — once.
	if s.LiftShed("healthy") {
		t.Fatal("LiftShed lifted a class that was never shed")
	}
	if !s.LiftShed("poison") {
		t.Fatal("LiftShed refused a shed class")
	}
	if s.LiftShed("poison") {
		t.Fatal("second LiftShed of the same class reported a lift")
	}
	if s.Metrics.ShedLifts != 1 {
		t.Fatalf("ShedLifts = %d, want 1", s.Metrics.ShedLifts)
	}
	if s.ClassShed("poison") {
		t.Fatal("class still shed after LiftShed")
	}

	// With the underlying bug repaired, the lifted class flows again.
	delete(app.crashes, "poison")
	if out := s.Submit(cfgEvent("poison", "3")); out != OutcomeProcessed {
		t.Fatalf("post-lift submit = %v, want processed", out)
	}
	if s.C.Config["poison"] != "3" {
		t.Fatalf("lifted event's effect missing: %v", s.C.Config)
	}
}

// TestLiftedClassStillBrokenReSheds: lifting a shed without repairing
// the underlying fault is safe — the failure streak was reset, so the
// supervisor re-learns the class deterministically and sheds it again
// (and OnShed fires again, re-triggering the repair loop).
func TestLiftedClassStillBrokenReSheds(t *testing.T) {
	app := &scriptApp{crashes: map[string]int{"poison": -1}}
	sheds := 0
	s := newScripted(app, Config{
		Classify: keyClassify,
		OnShed:   func(string) { sheds++ },
	})
	if out := s.Submit(cfgEvent("poison", "1")); out != OutcomeDegraded {
		t.Fatalf("outcome = %v, want degraded", out)
	}
	if !s.LiftShed("poison") {
		t.Fatal("LiftShed refused a shed class")
	}
	if out := s.Submit(cfgEvent("poison", "2")); out != OutcomeDegraded {
		t.Fatalf("post-lift poison = %v, want degraded again", out)
	}
	if !s.ClassShed("poison") || sheds != 2 {
		t.Fatalf("re-shed not reached: shed=%v onShed=%d", s.ClassShed("poison"), sheds)
	}
}
