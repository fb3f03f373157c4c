package sdn

// Patchable flow-rule program: the repair surface of the automatic
// repair loop (internal/repair, experiment E25). A Program is a small
// prioritized rule table interposed ahead of the controller — each
// rule matches an event signature (the same signatures the fault
// lab's poison classifier uses) and either admits, rewrites, drops,
// or clamps the event. Repairs are synthesized as edits to this
// program: reorder rule priorities, insert a guard rewrite, roll a
// poisoned config push onto a quarantined key prefix, or clamp an
// amplifying event stream to a per-incarnation budget.

import (
	"fmt"
	"sort"
	"strings"

	"sdnbugs/internal/openflow"
)

// Verdict is the program's decision for one event.
type Verdict int

// Verdict values.
const (
	// VerdictPass: the event proceeds unchanged.
	VerdictPass Verdict = iota
	// VerdictRewritten: the event proceeds in rewritten form.
	VerdictRewritten
	// VerdictDropped: the event is discarded by the program.
	VerdictDropped
)

func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "pass"
	case VerdictRewritten:
		return "rewritten"
	case VerdictDropped:
		return "dropped"
	default:
		return fmt.Sprintf("verdict-%d", int(v))
	}
}

// ActionKind is what a matched rule does with the event.
type ActionKind int

// Rule actions.
const (
	// ActAllow admits the event unchanged (an explicit pass-through,
	// useful as a reorder target above a broader rule).
	ActAllow ActionKind = iota
	// ActRewrite transforms the event per the rule's Rewrite.
	ActRewrite
	// ActDrop discards the event.
	ActDrop
	// ActClamp admits at most ClampBudget matching events per
	// controller incarnation and drops the rest — the queue-amplifier
	// repair.
	ActClamp
)

func (a ActionKind) String() string {
	switch a {
	case ActAllow:
		return "allow"
	case ActRewrite:
		return "rewrite"
	case ActDrop:
		return "drop"
	case ActClamp:
		return "clamp"
	default:
		return fmt.Sprintf("action-%d", int(a))
	}
}

// Predicate matches an event signature. The zero predicate matches
// every event; each set field narrows the match.
type Predicate struct {
	// Kind restricts the event kind (EventUnknown matches any).
	Kind EventKind `json:"kind"`
	// KeyPrefix matches config events whose key has this prefix.
	KeyPrefix string `json:"key_prefix,omitempty"`
	// Service matches external-call events to this service.
	Service string `json:"service,omitempty"`
	// BroadcastOnly matches only broadcast network frames.
	BroadcastOnly bool `json:"broadcast_only,omitempty"`
	// MatchVlan, when true, matches only network frames tagged VlanID.
	MatchVlan bool   `json:"match_vlan,omitempty"`
	VlanID    uint16 `json:"vlan_id,omitempty"`
}

// packetOf decodes the frame carried by a network event.
func packetOf(ev Event) (Packet, bool) {
	pi, ok := ev.Msg.(*openflow.PacketIn)
	if !ok {
		return Packet{}, false
	}
	pkt, err := DecodePacket(pi.Data)
	if err != nil {
		return Packet{}, false
	}
	return pkt, true
}

// Matches reports whether the event satisfies the predicate.
func (p Predicate) Matches(ev Event) bool {
	if p.Kind != EventUnknown && ev.Kind != p.Kind {
		return false
	}
	if p.KeyPrefix != "" && !(ev.Kind == EventConfig && strings.HasPrefix(ev.Key, p.KeyPrefix)) {
		return false
	}
	if p.Service != "" && !(ev.Kind == EventExternalCall && ev.Service == p.Service) {
		return false
	}
	if p.BroadcastOnly || p.MatchVlan {
		pkt, ok := packetOf(ev)
		if !ok {
			return false
		}
		if p.BroadcastOnly && !pkt.IsBroadcast() {
			return false
		}
		if p.MatchVlan && pkt.VlanID != p.VlanID {
			return false
		}
	}
	return true
}

// Rewrite transforms a matched event. Fields are applied
// independently; each applies only to event kinds it is meaningful
// for.
type Rewrite struct {
	// SetKeyPrefix replaces the rule predicate's KeyPrefix in a config
	// event's key — the rollback repair: the push is re-targeted onto a
	// quarantined key, not lost.
	SetKeyPrefix string `json:"set_key_prefix,omitempty"`
	// SetValue replaces a config event's value.
	SetValue string `json:"set_value,omitempty"`
	// StripVlan re-encodes a network frame without its VLAN tag — the
	// guard repair for VLAN-keyed poison signatures.
	StripVlan bool `json:"strip_vlan,omitempty"`
}

// Rule is one prioritized program entry. Higher priorities match
// first; ties break on ID.
type Rule struct {
	ID       string     `json:"id"`
	Priority int        `json:"priority"`
	Match    Predicate  `json:"match"`
	Action   ActionKind `json:"action"`
	// Rewrite parameterizes ActRewrite.
	Rewrite Rewrite `json:"rewrite,omitempty"`
	// ClampBudget parameterizes ActClamp: matching events admitted per
	// controller incarnation (must be ≥ 1 — a zero budget is a shed,
	// not a repair).
	ClampBudget int `json:"clamp_budget,omitempty"`
}

// Program is an ordered flow-rule program. The first matching rule
// decides the event's fate; no match passes the event through.
// Programs are not safe for concurrent use (clamp counters), matching
// the single-threaded controller model.
type Program struct {
	Rules []Rule `json:"rules"`

	// clamped counts matched events per clamp rule in the current
	// controller incarnation.
	clamped map[string]int
}

// NewProgram builds a normalized program from rules.
func NewProgram(rules ...Rule) *Program {
	p := &Program{Rules: append([]Rule(nil), rules...)}
	p.Normalize()
	return p
}

// Clone deep-copies the program with fresh clamp state.
func (p *Program) Clone() *Program {
	if p == nil {
		return NewProgram()
	}
	return NewProgram(p.Rules...)
}

// Normalize sorts rules by descending priority, breaking ties on ID,
// so program behavior and fingerprints are independent of insertion
// order.
func (p *Program) Normalize() {
	sort.SliceStable(p.Rules, func(i, j int) bool {
		if p.Rules[i].Priority != p.Rules[j].Priority {
			return p.Rules[i].Priority > p.Rules[j].Priority
		}
		return p.Rules[i].ID < p.Rules[j].ID
	})
}

// NewIncarnation resets per-incarnation state (clamp counters); the
// supervisor calls it on every controller restart, mirroring the
// fault lab's incarnation semantics.
func (p *Program) NewIncarnation() {
	if p == nil {
		return
	}
	p.clamped = nil
}

// Validate checks program well-formedness: unique non-empty rule IDs,
// known actions, a non-empty rewrite on rewrite rules (with a
// substitutable prefix when SetKeyPrefix is used), and clamp budgets
// of at least one.
func (p *Program) Validate() error {
	if p == nil {
		return nil
	}
	seen := make(map[string]bool, len(p.Rules))
	for i, r := range p.Rules {
		if r.ID == "" {
			return fmt.Errorf("sdn: program rule %d: empty id", i)
		}
		if seen[r.ID] {
			return fmt.Errorf("sdn: program rule %q: duplicate id", r.ID)
		}
		seen[r.ID] = true
		switch r.Action {
		case ActAllow, ActDrop:
		case ActRewrite:
			if r.Rewrite == (Rewrite{}) {
				return fmt.Errorf("sdn: program rule %q: rewrite action with empty rewrite", r.ID)
			}
			if r.Rewrite.SetKeyPrefix != "" && r.Match.KeyPrefix == "" {
				return fmt.Errorf("sdn: program rule %q: SetKeyPrefix needs a KeyPrefix match to substitute", r.ID)
			}
		case ActClamp:
			if r.ClampBudget < 1 {
				return fmt.Errorf("sdn: program rule %q: clamp budget %d < 1", r.ID, r.ClampBudget)
			}
		default:
			return fmt.Errorf("sdn: program rule %q: unknown action %d", r.ID, int(r.Action))
		}
	}
	return nil
}

// Apply runs the event through the program: the first matching rule
// decides. A nil program passes everything.
func (p *Program) Apply(ev Event) (Event, Verdict) {
	if p == nil {
		return ev, VerdictPass
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		if !r.Match.Matches(ev) {
			continue
		}
		switch r.Action {
		case ActAllow:
			return ev, VerdictPass
		case ActDrop:
			return ev, VerdictDropped
		case ActClamp:
			if p.clamped == nil {
				p.clamped = make(map[string]int)
			}
			p.clamped[r.ID]++
			if p.clamped[r.ID] > r.ClampBudget {
				return ev, VerdictDropped
			}
			return ev, VerdictPass
		case ActRewrite:
			out, changed := rewriteEvent(*r, ev)
			if changed {
				return out, VerdictRewritten
			}
			return ev, VerdictPass
		}
	}
	return ev, VerdictPass
}

// rewriteEvent applies a rewrite rule to a matched event, reporting
// whether anything changed.
func rewriteEvent(r Rule, ev Event) (Event, bool) {
	out := ev
	changed := false
	if ev.Kind == EventConfig {
		if r.Rewrite.SetKeyPrefix != "" && r.Match.KeyPrefix != "" && strings.HasPrefix(ev.Key, r.Match.KeyPrefix) {
			out.Key = r.Rewrite.SetKeyPrefix + strings.TrimPrefix(ev.Key, r.Match.KeyPrefix)
			changed = changed || out.Key != ev.Key
		}
		if r.Rewrite.SetValue != "" {
			out.Value = r.Rewrite.SetValue
			changed = changed || out.Value != ev.Value
		}
	}
	if r.Rewrite.StripVlan && ev.Kind == EventNetwork {
		if pi, ok := ev.Msg.(*openflow.PacketIn); ok {
			if pkt, err := DecodePacket(pi.Data); err == nil && pkt.VlanID != 0 {
				pkt.VlanID = 0
				cp := *pi
				cp.Data = EncodePacket(pkt)
				out.Msg = &cp
				changed = true
			}
		}
	}
	return out, changed
}

// Fingerprint is a canonical serialization of the program's rules,
// for byte-identity checks and report stability.
func (p *Program) Fingerprint() string {
	if p == nil || len(p.Rules) == 0 {
		return "empty"
	}
	var b strings.Builder
	for _, r := range p.Rules {
		fmt.Fprintf(&b, "%s|%d|%+v|%s|%+v|%d;", r.ID, r.Priority, r.Match, r.Action, r.Rewrite, r.ClampBudget)
	}
	return b.String()
}
