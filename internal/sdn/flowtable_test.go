package sdn

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sdnbugs/internal/openflow"
)

// refFlowTable is the linear flow table the indexed FlowTable
// replaced, kept as the reference it must agree with: one slice in
// table order, scanned in full by Lookup and re-sorted on every
// insert.
type refFlowTable struct{ entries []FlowEntry }

func (t *refFlowTable) Add(e FlowEntry) {
	for i, old := range t.entries {
		if old.Priority == e.Priority && old.Match == e.Match {
			t.entries[i] = e
			return
		}
	}
	t.entries = append(t.entries, e)
	sort.SliceStable(t.entries, func(a, b int) bool {
		return t.entries[a].Priority > t.entries[b].Priority
	})
}

func (t *refFlowTable) Delete(m openflow.Match) int {
	kept := t.entries[:0]
	removed := 0
	for _, e := range t.entries {
		if e.Match == m {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	t.entries = kept
	return removed
}

func (t *refFlowTable) Clear() { t.entries = nil }

func (t *refFlowTable) Lookup(p Packet, inPort uint32) *FlowEntry {
	for i := range t.entries {
		if t.entries[i].matches(p, inPort) {
			return &t.entries[i]
		}
	}
	return nil
}

// sameEntry reports whether two lookups returned the same entry: equal
// priority and match (which identify an entry) and equal actions.
func sameEntry(a, b *FlowEntry) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Priority == b.Priority && a.Match == b.Match && slices.Equal(a.Actions, b.Actions)
}

// runFlowOps decodes data, three bytes per operation, into Add,
// Delete, Clear and Lookup calls over small value domains, so matches
// and priorities collide often. It applies each to a FlowTable and to
// the reference and reports the first disagreement.
func runFlowOps(data []byte) error {
	var got FlowTable
	var want refFlowTable
	for n := 0; len(data) >= 3; n++ {
		op, a, b := data[0], data[1], data[2]
		data = data[3:]
		m := openflow.Match{
			EthDst:      uint64(a & 3), // 0 wildcards EthDst
			MatchInPort: a&4 != 0,
			InPort:      uint32(a>>3&1) + 1,
			EthType:     uint16(a>>4&1) * 0x0800,
			VlanID:      uint16(a>>5&1) * 5,
		}
		switch op % 8 {
		case 0, 1, 2:
			e := FlowEntry{Priority: uint16(b & 3), Match: m,
				Actions: []openflow.Action{{Type: openflow.ActionOutput, Port: uint32(b >> 2)}}}
			got.Add(e)
			want.Add(e)
		case 3:
			if g, w := got.Delete(m), want.Delete(m); g != w {
				return fmt.Errorf("op %d: Delete(%+v) removed %d, reference %d", n, m, g, w)
			}
		case 4:
			if op&8 != 0 {
				got.Clear()
				want.Clear()
			}
		default:
			p := Packet{EthDst: uint64(b & 3), EthType: uint16(b>>2&1) * 0x0800, VlanID: uint16(b>>3&1) * 5}
			inPort := uint32(b>>4&1) + 1
			if g, w := got.Lookup(p, inPort), want.Lookup(p, inPort); !sameEntry(g, w) {
				return fmt.Errorf("op %d: Lookup(%+v, %d) = %+v, reference %+v", n, p, inPort, g, w)
			}
		}
		if got.Len() != len(want.entries) {
			return fmt.Errorf("op %d: Len %d, reference %d", n, got.Len(), len(want.entries))
		}
	}
	var wantEntries []FlowEntry
	for _, e := range want.entries {
		e.Actions = append([]openflow.Action(nil), e.Actions...)
		wantEntries = append(wantEntries, e)
	}
	if g := got.Entries(); !reflect.DeepEqual(g, wantEntries) {
		return fmt.Errorf("Entries = %+v, reference %+v", g, wantEntries)
	}
	return nil
}

func TestFlowTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 500; seq++ {
		data := make([]byte, 3*(1+rng.Intn(200)))
		rng.Read(data)
		if err := runFlowOps(data); err != nil {
			t.Fatalf("sequence %d: %v", seq, err)
		}
	}
}

func FuzzFlowTableMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0x01, 0x05, 1, 0x00, 0x04, 5, 0x00, 0x01})
	f.Add([]byte{0, 0x07, 0x02, 1, 0x03, 0x02, 2, 0x3b, 0x01, 7, 0x00, 0x13, 3, 0x07, 0x00, 6, 0, 0x1b})
	f.Add([]byte{0, 0x21, 0x01, 12, 0, 0, 1, 0x21, 0x09, 5, 0, 0x21})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runFlowOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// The table owns its entries' actions: changing the caller's slice
// after Add, or an Entries copy, leaves the table as it was.
func TestFlowTableOwnsActions(t *testing.T) {
	var tbl FlowTable
	acts := []openflow.Action{{Type: openflow.ActionOutput, Port: 3}}
	m := openflow.Match{EthDst: 0x22}
	tbl.Add(FlowEntry{Priority: 10, Match: m, Actions: acts})
	acts[0].Port = 9
	tbl.Entries()[0].Actions[0].Port = 9
	if e := tbl.Lookup(Packet{EthDst: 0x22}, 1); e == nil || e.Actions[0].Port != 3 {
		t.Fatalf("lookup = %+v, want output to port 3", e)
	}
	tbl.Add(FlowEntry{Priority: 10, Match: m, Actions: acts})
	acts[0].Port = 4
	if e := tbl.Lookup(Packet{EthDst: 0x22}, 1); e == nil || e.Actions[0].Port != 9 {
		t.Fatalf("after replace: lookup = %+v, want output to port 9", e)
	}
}
