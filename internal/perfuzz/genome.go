// Package perfuzz is a feedback-guided stateful performance fuzzer
// over the simulated SDN controller (experiment E24). The paper's
// taxonomy names the symptom classes — performance degradations,
// stalls, crash-restart storms — and the sustained campaign (E22)
// replays one fixed schedule; perfuzz *searches* schedule space for
// the sequences that hurt, SPIDER-style: a genome is a schedule of
// management/traffic/wire-fault episodes, fitness is computed from
// per-event latency distributions and supervisor probe signals, and
// mutation operators splice/duplicate/retime/reclass episodes under a
// seed-deterministic PRNG so every run is reproducible from
// (seed, budget).
//
// Any degradation-inducing genome is delta-debugged down to a minimal
// reproducer (greedy chunk removal, then single-gene removal, then
// gap zeroing — re-validating that the same degradation class still
// triggers at every step), and the corpus of (schedule → degraded?)
// pairs trains a failure-inducing classifier (internal/ml) that must
// beat random guessing on held-out schedules — the protocol of
// "Learning Failure-Inducing Models for Testing SDN".
package perfuzz

import (
	"fmt"
	"math/rand"
	"strings"

	"sdnbugs/internal/faultlab"
)

// Op is one episode kind a gene can encode. The set mirrors the
// sustained campaign's schedule slots (internal/faultlab): management
// events, traffic, poison inputs, and wire-level faults.
type Op uint8

// Gene operations.
const (
	// OpConfig pushes a benign VLAN config stanza.
	OpConfig Op = iota
	// OpPoisonConfig pushes a multicast.* stanza — the deterministic
	// crash poison (CORD-2470's signature).
	OpPoisonConfig
	// OpExternal calls an external service (influxdb/atomix).
	OpExternal
	// OpReboot reboots a switch — the stateful stall trigger.
	OpReboot
	// OpUnicast pumps one unicast exchange between two hosts.
	OpUnicast
	// OpBroadcast pumps a broadcast flood.
	OpBroadcast
	// OpMirrorBroadcast pumps a broadcast on the mirror (poison) VLAN.
	OpMirrorBroadcast
	// OpWireFault injects one connection-layer fault episode.
	OpWireFault

	numOps
)

func (o Op) String() string {
	switch o {
	case OpConfig:
		return "config"
	case OpPoisonConfig:
		return "poison-config"
	case OpExternal:
		return "external"
	case OpReboot:
		return "reboot"
	case OpUnicast:
		return "unicast"
	case OpBroadcast:
		return "broadcast"
	case OpMirrorBroadcast:
		return "mirror-broadcast"
	case OpWireFault:
		return "wire-fault"
	default:
		return fmt.Sprintf("op-%d", uint8(o))
	}
}

// Gene is one schedule episode. Operands A and B are raw integers the
// harness maps into valid ranges (host indices, config keys, wire
// fault kinds) at execution time, so any mutation yields a runnable
// gene. Gap is the number of benign pad events injected before the
// episode — the retime dimension: spacing dilutes the supervisor's
// sliding perf window and the latency distribution without changing
// the episode mix.
type Gene struct {
	Op  Op     `json:"op"`
	A   uint16 `json:"a"`
	B   uint16 `json:"b"`
	Gap uint8  `json:"gap"`
}

// MaxGap bounds a gene's pad run (Gap is taken modulo MaxGap+1).
const MaxGap = 7

// Genome is one candidate schedule.
type Genome []Gene

// Compile lowers the genome onto a topology's hosts and switches as a
// campaign schedule. Each Gap pad becomes a benign external-call slot
// (influxdb telemetry) that spaces its gene out in logical time; ops
// map onto slot kinds one to one, and a unicast gene's B picks a
// destination distinct from its source. Wire episodes draw from a PRNG
// seeded by the harness seed. The slots are appended to dst, so a
// caller compiling many genomes can reuse one buffer.
func (g Genome) Compile(dst []faultlab.Slot, seed int64, hosts, dpids []uint64) (faultlab.Schedule, error) {
	if len(hosts) < 2 || len(dpids) == 0 {
		return faultlab.Schedule{}, fmt.Errorf("perfuzz: topology too small (%d hosts, %d switches)", len(hosts), len(dpids))
	}
	slots := dst
	pad := faultlab.NewSlot(faultlab.SlotExternal, 0, 0, hosts, dpids)
	for _, gene := range g {
		for p := 0; p < int(gene.Gap%(MaxGap+1)); p++ {
			slots = append(slots, pad)
		}
		if gene.Op >= numOps {
			continue
		}
		a, b := int(gene.A), int(gene.B)
		if gene.Op == OpUnicast {
			b = a + 1 + b%(len(hosts)-1)
		}
		slots = append(slots, faultlab.NewSlot(faultlab.SlotKind(gene.Op), a, b, hosts, dpids))
	}
	return faultlab.Schedule{Slots: slots, WireSeed: seed*52361 + 7}, nil
}

// Fingerprint is a canonical string form, used as the evaluation
// cache key and in byte-identity checks.
func (g Genome) Fingerprint() string {
	var b strings.Builder
	b.Grow(len(g) * 12)
	for _, gene := range g {
		fmt.Fprintf(&b, "%d:%d:%d:%d;", gene.Op, gene.A, gene.B, gene.Gap)
	}
	return b.String()
}

// Clone deep-copies the genome.
func (g Genome) Clone() Genome {
	out := make(Genome, len(g))
	copy(out, g)
	return out
}

// opWeights shape the random-genome episode mix: traffic-heavy (like
// the E22 campaign) with rare poison configs so degradation is not a
// giveaway — the search has to find the dense/poisoned schedules.
var opWeights = []struct {
	op Op
	w  float64
}{
	{OpConfig, 0.12},
	{OpPoisonConfig, 0.004},
	{OpExternal, 0.08},
	{OpReboot, 0.05},
	{OpUnicast, 0.376},
	{OpBroadcast, 0.20},
	{OpMirrorBroadcast, 0.12},
	{OpWireFault, 0.05},
}

// randomOp draws an op from the weighted mix.
func randomOp(rng *rand.Rand) Op {
	r := rng.Float64()
	acc := 0.0
	for _, ow := range opWeights {
		acc += ow.w
		if r < acc {
			return ow.op
		}
	}
	return OpUnicast
}

// randomGene draws one gene.
func randomGene(rng *rand.Rand) Gene {
	return Gene{
		Op:  randomOp(rng),
		A:   uint16(rng.Intn(1 << 16)),
		B:   uint16(rng.Intn(1 << 16)),
		Gap: uint8(rng.Intn(MaxGap + 1)),
	}
}

// RandomGenome draws a genome of n genes from the seeded PRNG.
func RandomGenome(rng *rand.Rand, n int) Genome {
	if n < 1 {
		n = 1
	}
	g := make(Genome, n)
	for i := range g {
		g[i] = randomGene(rng)
	}
	return g
}

// clampLen enforces the genome length bounds [1, maxLen].
func clampLen(g Genome, maxLen int) Genome {
	if len(g) == 0 {
		return Genome{Gene{Op: OpUnicast}}
	}
	if maxLen > 0 && len(g) > maxLen {
		return g[:maxLen]
	}
	return g
}

// Mutate returns a mutated copy of g, applying one of the mutation
// operators: duplicate a chunk (densify), delete a chunk (sparsify),
// retime (rewrite gaps), reclass (rewrite one gene's op), perturb
// operands, or insert a fresh gene. All randomness comes from rng.
func Mutate(rng *rand.Rand, g Genome, maxLen int) Genome {
	out := g.Clone()
	switch rng.Intn(6) {
	case 0: // duplicate a chunk — the densifying move stateful
		// (budget-driven) bugs reward.
		if len(out) > 0 {
			start, size := randomSpan(rng, len(out))
			chunk := append(Genome{}, out[start:start+size]...)
			at := rng.Intn(len(out) + 1)
			out = append(out[:at], append(chunk, out[at:].Clone()...)...)
		}
	case 1: // delete a chunk.
		if len(out) > 1 {
			start, size := randomSpan(rng, len(out))
			out = append(out[:start], out[start+size:]...)
		}
	case 2: // retime: rewrite the gaps of a random span.
		if len(out) > 0 {
			start, size := randomSpan(rng, len(out))
			for i := start; i < start+size; i++ {
				out[i].Gap = uint8(rng.Intn(MaxGap + 1))
			}
		}
	case 3: // reclass: rewrite one gene's op (operands kept — they are
		// reinterpreted under the new op).
		if len(out) > 0 {
			out[rng.Intn(len(out))].Op = randomOp(rng)
		}
	case 4: // perturb operands of one gene.
		if len(out) > 0 {
			i := rng.Intn(len(out))
			out[i].A = uint16(rng.Intn(1 << 16))
			out[i].B = uint16(rng.Intn(1 << 16))
		}
	case 5: // insert a fresh gene.
		at := rng.Intn(len(out) + 1)
		out = append(out[:at], append(Genome{randomGene(rng)}, out[at:].Clone()...)...)
	}
	return clampLen(out, maxLen)
}

// randomSpan picks a random span of an n-gene genome: a start and a
// length of up to a quarter of the genome, clipped to its end.
func randomSpan(rng *rand.Rand, n int) (start, size int) {
	start = rng.Intn(n)
	size = 1 + rng.Intn(max(n/4, 1))
	return start, min(size, n-start)
}

// Splice crosses two parents at one cut point each — the genetic
// recombination move that joins a degrading prefix with a degrading
// suffix.
func Splice(rng *rand.Rand, a, b Genome, maxLen int) Genome {
	if len(a) == 0 {
		return b.Clone()
	}
	if len(b) == 0 {
		return a.Clone()
	}
	ca := rng.Intn(len(a) + 1)
	cb := rng.Intn(len(b) + 1)
	out := make(Genome, 0, ca+len(b)-cb)
	out = append(out, a[:ca]...)
	out = append(out, b[cb:]...)
	return clampLen(out, maxLen)
}
