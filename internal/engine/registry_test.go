package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// stub builds a trivially-succeeding experiment.
func stub(id string, kind Kind) Experiment[int] {
	return Experiment[int]{ID: id, Title: "exp " + id, Kind: kind,
		Run: func(context.Context) (int, error) { return 0, nil }}
}

func newTestRegistry(t *testing.T, ids ...string) *Registry[int] {
	t.Helper()
	r := NewRegistry[int]()
	for _, id := range ids {
		if err := r.Register(stub(id, KindExperiment)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry[int]()
	if err := r.Register(stub("", KindExperiment)); !errors.Is(err, ErrRegister) {
		t.Errorf("empty id: err = %v, want ErrRegister", err)
	}
	if err := r.Register(Experiment[int]{ID: "E01"}); !errors.Is(err, ErrRegister) {
		t.Errorf("nil Run: err = %v, want ErrRegister", err)
	}
	if err := r.Register(stub("E01", KindExperiment)); err != nil {
		t.Fatal(err)
	}
	// Duplicate rejection is case-insensitive.
	if err := r.Register(stub("e01", KindAblation)); !errors.Is(err, ErrRegister) {
		t.Errorf("duplicate id: err = %v, want ErrRegister", err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestRegisterDefaultsKind(t *testing.T) {
	r := NewRegistry[int]()
	r.MustRegister(Experiment[int]{ID: "x1",
		Run: func(context.Context) (int, error) { return 0, nil }})
	got, err := r.Select([]string{"X1"})
	if err != nil {
		t.Fatal(err)
	}
	if e := got[0]; e.Kind != KindExperiment {
		t.Errorf("Kind = %q, want %q", e.Kind, KindExperiment)
	}
}

func TestMustRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRegister on a duplicate should panic")
		}
	}()
	r := newTestRegistry(t, "E01")
	r.MustRegister(stub("E01", KindExperiment))
}

func TestLookupNormalizesID(t *testing.T) {
	r := newTestRegistry(t, "E01", "E02")
	if got, err := r.Select([]string{"  e02 "}); err != nil || len(got) != 1 || got[0].ID != "E02" {
		t.Errorf("Select(\"  e02 \") = %v, %v; want E02 (case/space-insensitive)", got, err)
	}
	if _, err := r.Select([]string{"E99"}); !errors.Is(err, ErrUnknownID) {
		t.Errorf("Select of unknown id: err = %v, want ErrUnknownID", err)
	}
}

func TestSelectOrderAndDedup(t *testing.T) {
	r := newTestRegistry(t, "E01", "E02", "E03")
	// Selection order and duplicates don't matter: registration order wins.
	got, err := r.Select([]string{"e03", "E01", "e03"})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(got))
	for i, e := range got {
		ids[i] = e.ID
	}
	if want := []string{"E01", "E03"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("Select ids = %v, want %v", ids, want)
	}
}

func TestSelectEmptyIsAll(t *testing.T) {
	r := newTestRegistry(t, "E01", "E02")
	got, err := r.Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("empty Select = %d experiments, want 2", len(got))
	}
}

func TestSelectUnknownID(t *testing.T) {
	r := newTestRegistry(t, "E01")
	_, err := r.Select([]string{"E01", "E99"})
	if !errors.Is(err, ErrUnknownID) {
		t.Fatalf("err = %v, want ErrUnknownID", err)
	}
}

func TestOfKind(t *testing.T) {
	r := NewRegistry[int]()
	r.MustRegister(stub("E01", KindExperiment))
	r.MustRegister(stub("A01", KindAblation))
	r.MustRegister(stub("E02", KindExperiment))
	exps := r.OfKind(KindExperiment)
	if len(exps) != 2 || exps[0].ID != "E01" || exps[1].ID != "E02" {
		t.Errorf("OfKind(experiment) = %v", exps)
	}
	if abl := r.OfKind(KindAblation); len(abl) != 1 || abl[0].ID != "A01" {
		t.Errorf("OfKind(ablation) = %v", abl)
	}
}

func TestParseIDs(t *testing.T) {
	got := ParseIDs(" e02, E05 ,,a03 ")
	if want := []string{"E02", "E05", "A03"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ParseIDs = %v, want %v", got, want)
	}
	if got := ParseIDs(""); got != nil {
		t.Errorf("ParseIDs(\"\") = %v, want nil", got)
	}
}
