// Package cluster turns the single supervised controller into an
// N-replica ensemble: deterministic term/lease-based leader election,
// primary→standby state replication by shipping the primary's event
// log in bounded batches (sdn.Controller.Follow: a standby whose log is
// a prefix of the primary's adopts the primary's entries instead of
// copying them, and applies them without re-forwarding the primary's
// packet-outs, so replicas converge byte-identically and standbys keep
// empty dataplane queues),
// OpenFlow mastership handoff at the ofconn layer (role request/reply
// with generation ids), and fencing tokens so a deposed primary's
// in-flight writes are rejected — no dual-master window ever mutates
// state.
//
// The paper's taxonomy puts control-plane failures (controller
// crashes, mastership confusion, state divergence after reconnect)
// among the most damaging SDN bug classes; everything here is logical
// ticks and seed-deterministic, so the failover campaign (E26) can
// assert byte-identity against an unfaulted single-controller run.
package cluster

import (
	"errors"
	"fmt"
	"sync"

	"sdnbugs/internal/metrics"
	"sdnbugs/internal/resilience"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/supervise"
)

// Logical-tick costs of ensemble actions, in the same units as the
// supervisor's (supervise.RestartCost etc).
const (
	// ElectionCost is the fixed tick cost of one election round
	// (vote solicitation + count across the quorum).
	ElectionCost = 8
	// HandoffCost is the tick cost of one switch mastership handoff
	// (role request/reply round trip).
	HandoffCost = 2
	// LeaseTickCost is how many ticks of downtime one slot of expired
	// lease costs while standbys wait out the primary's lease.
	LeaseTickCost = 4
	// DefaultInboxCapacity is the default per-standby replication
	// batch: the most log events one slot ships to a standby. A longer
	// suffix is deferred to later slots and counted in
	// cluster_inbox_deferred_total.
	DefaultInboxCapacity = 4096
)

// Config tunes an Ensemble.
type Config struct {
	// Replicas is the ensemble size (default 3).
	Replicas int
	// LeaseSlots is how many slots without a primary heartbeat a
	// standby waits before starting an election (default 3).
	LeaseSlots int
	// InboxCapacity bounds the replication batch per standby
	// (default DefaultInboxCapacity events per slot).
	InboxCapacity int
	// Factory builds one replica's controller. Every replica must be
	// built identically — replication assumes replaying the same log
	// on any replica converges to the same state.
	Factory func() (*sdn.Controller, error)
	// Classify buckets events for the per-replica supervisors
	// (defaults to EventKind.String()).
	Classify func(sdn.Event) string
	// Metrics, when set, receives cluster_* counters and the
	// failover-wall histogram. Observability never changes results.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.LeaseSlots <= 0 {
		c.LeaseSlots = 3
	}
	if c.InboxCapacity <= 0 {
		c.InboxCapacity = DefaultInboxCapacity
	}
	return c
}

// Metrics aggregates one ensemble run. Everything is logical (counts
// and ticks), so runs at the same seed are byte-identical.
type Metrics struct {
	Offered   int
	Processed int
	Lost      int

	Elections        int
	FailedElections  int
	Failovers        int
	FencedRejects    int
	FencedLeaks      int
	WireStaleRejects int

	FailoverTicks  []int // wall of each completed failover
	LeaseWaitTicks int

	UptimeTicks   int
	DowntimeTicks int
}

// MeanFailoverTicks is the mean wall of one completed failover.
func (m Metrics) MeanFailoverTicks() float64 {
	if len(m.FailoverTicks) == 0 {
		return 0
	}
	total := 0
	for _, t := range m.FailoverTicks {
		total += t
	}
	return float64(total) / float64(len(m.FailoverTicks))
}

// TimeAvailability is uptime over total logical time.
func (m Metrics) TimeAvailability() float64 {
	total := m.UptimeTicks + m.DowntimeTicks
	if total == 0 {
		return 1
	}
	return float64(m.UptimeTicks) / float64(total)
}

// Fence is the cluster-side fencing token: a forward-only generation
// number matching the switch bank's accepted generation id. Every log
// write states the term it acts under; terms below the fence are
// rejected without touching any state. Safe for concurrent use — the
// dual-primary race is exactly what it guards.
type Fence struct {
	mu  sync.Mutex
	gen uint64
}

// Generation returns the highest accepted term.
func (f *Fence) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

// Allow reports whether a write under term may proceed.
func (f *Fence) Allow(term uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return term >= f.gen
}

// Advance raises the fence to term; it refuses to move backward.
func (f *Fence) Advance(term uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if term < f.gen {
		return false
	}
	f.gen = term
	return true
}

// Replica is one ensemble member: a controller plus its supervisor.
type Replica struct {
	ID  int
	C   *sdn.Controller
	Sup *supervise.Supervisor

	// term is the highest term this replica held the primaryship
	// under — the fencing token its writes carry.
	term uint64
}

// Term returns the fencing token of the replica's last primaryship.
func (r *Replica) Term() uint64 { return r.term }

// Ensemble is the replicated controller cluster.
type Ensemble struct {
	cfg  Config
	Reps []*Replica

	primary int
	term    uint64
	fence   Fence
	bank    *Bank

	// reach[i][j] reports whether replica i can send to replica j.
	// Asymmetric entries model one-way link faults.
	reach [][]bool

	// quorumLostSlots counts consecutive slots the primary has been
	// without quorum — the standbys' lease clock.
	quorumLostSlots int

	// pendingRetry holds events a failover re-homes onto the new
	// primary.
	pendingRetry []sdn.Event

	Metrics Metrics
}

// New builds and starts an ensemble: replica 0 is the initial primary
// at term 1, holding switch mastership across the bank.
func New(cfg Config) (*Ensemble, error) {
	cfg = cfg.withDefaults()
	if cfg.Factory == nil {
		return nil, errors.New("cluster: Config.Factory is required")
	}
	e := &Ensemble{cfg: cfg, term: 1}
	for i := 0; i < cfg.Replicas; i++ {
		c, err := cfg.Factory()
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
		}
		rep := &Replica{ID: i, C: c}
		rep.Sup = e.newSupervisor(rep)
		e.Reps = append(e.Reps, rep)
	}
	e.reach = fullReach(cfg.Replicas)
	bank, err := NewBank(e.Reps[0].C.Net.Switches())
	if err != nil {
		return nil, err
	}
	e.bank = bank
	if _, err := e.bank.Handoff(e.term); err != nil {
		return nil, fmt.Errorf("cluster: initial handoff: %w", err)
	}
	e.fence.Advance(e.term)
	e.Reps[0].term = e.term
	return e, nil
}

// newSupervisor wires one replica's self-healing runtime: a dry
// restart budget so every incident escalates straight to the Failover
// hook — in a cluster, handing off beats restarting in place.
func (e *Ensemble) newSupervisor(rep *Replica) *supervise.Supervisor {
	return supervise.New(rep.C, supervise.Config{
		Budget:   resilience.NewBudget(0, 0),
		Classify: e.cfg.Classify,
		Failover: func(retry *sdn.Event) bool { return e.failover(rep, retry) },
		Metrics:  e.cfg.Metrics,
	})
}

func fullReach(n int) [][]bool {
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
		for j := range reach[i] {
			reach[i][j] = true
		}
	}
	return reach
}

// count increments a registry counter when observability is wired.
func (e *Ensemble) count(name string) {
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.Counter(name).Inc()
	}
}

// Primary returns the serving replica.
func (e *Ensemble) Primary() *Replica { return e.Reps[e.primary] }

// Term returns the current term (the live fencing token).
func (e *Ensemble) Term() uint64 { return e.term }

// Bank exposes the switch mastership bank.
func (e *Ensemble) BankRef() *Bank { return e.bank }

// reachable reports bidirectional reachability between two replicas.
func (e *Ensemble) reachable(i, j int) bool {
	return e.reach[i][j] && e.reach[j][i]
}

// hasQuorum reports whether replica i can talk (bidirectionally) to a
// strict majority of the ensemble, itself included. Crash state is
// deliberately ignored: quorum is a network property; a crashed but
// connected primary is detected by the next request, not by lease
// expiry.
func (e *Ensemble) hasQuorum(i int) bool {
	votes := 1
	for j := range e.Reps {
		if j != i && e.reachable(i, j) {
			votes++
		}
	}
	return votes*2 > len(e.Reps)
}

// Available reports whether client traffic can currently reach a
// primary holding quorum.
func (e *Ensemble) Available() bool { return e.hasQuorum(e.primary) }

// Isolate cuts every link to and from replica i.
func (e *Ensemble) Isolate(i int) {
	for j := range e.Reps {
		if j != i {
			e.reach[i][j] = false
			e.reach[j][i] = false
		}
	}
}

// BreakLink cuts the one-way link from i to j — the asymmetric fault
// that defeats a candidate's vote collection (votes need both
// directions) without looking like a clean partition.
func (e *Ensemble) BreakLink(i, j int) { e.reach[i][j] = false }

// HealLinks restores full connectivity.
func (e *Ensemble) HealLinks() {
	e.reach = fullReach(len(e.Reps))
	e.quorumLostSlots = 0
}

// CrashPrimary fail-stops the serving controller out-of-band, the way
// a faultlab crash episode does.
func (e *Ensemble) CrashPrimary() {
	e.Primary().C.State = sdn.StateCrashed
}

// Revive rebuilds a crashed replica from the factory: a fresh
// controller with an empty log, which the replication path catches up
// from the current primary. Replaying the full log on a fresh replica
// is exactly the unfaulted run, so the revived replica converges
// byte-identically.
func (e *Ensemble) Revive(i int) error {
	rep := e.Reps[i]
	if rep.C.State != sdn.StateCrashed {
		return nil
	}
	c, err := e.cfg.Factory()
	if err != nil {
		return fmt.Errorf("cluster: revive %d: %w", i, err)
	}
	rep.C = c
	rep.Sup = e.newSupervisor(rep)
	return nil
}

// Submit routes one client event to the serving primary. A crashed
// primary is detected by the supervisor's probe; its dry restart
// budget escalates straight to the Failover hook, which elects a new
// primary, hands switch mastership over at the wire, and re-homes the
// event there — the caller sees OutcomeHealed and the event is never
// lost.
func (e *Ensemble) Submit(ev sdn.Event) supervise.Outcome {
	e.Metrics.Offered++
	rep := e.Primary()
	before := rep.C.Stats.TotalCost
	out, ok := e.applyAs(rep, rep.term, ev)
	cost := rep.C.Stats.TotalCost - before
	if !ok {
		// The serving primary's own term can only be fenced off by a
		// concurrent deposition — count the event as lost rather than
		// silently dropping it.
		e.Metrics.Lost++
		return supervise.OutcomeLost
	}
	switch out {
	case supervise.OutcomeProcessed:
		e.Metrics.UptimeTicks += cost
		e.Metrics.Processed++
	case supervise.OutcomeHealed:
		// A failover ran inside Submit; the retry event waits in
		// pendingRetry for the new primary.
		e.Metrics.Processed++
		e.drainRetries()
	default:
		e.Metrics.Lost++
	}
	return out
}

// applyAs submits one event as replica rep claiming term. The fence
// rejects stale terms without touching the log — the no-leak
// guarantee the dual-primary test hammers.
func (e *Ensemble) applyAs(rep *Replica, term uint64, ev sdn.Event) (supervise.Outcome, bool) {
	if !e.fence.Allow(term) {
		logLen := len(rep.C.Log)
		e.Metrics.FencedRejects++
		e.count("cluster_fenced_writes_total")
		if len(rep.C.Log) != logLen {
			e.Metrics.FencedLeaks++
		}
		return 0, false
	}
	return rep.Sup.Submit(ev), true
}

// AttemptStaleWrite is the deposed-primary probe: replica i tries to
// apply a write under an old term. The fence must reject it with zero
// state mutated; the return reports whether the write leaked.
func (e *Ensemble) AttemptStaleWrite(i int, term uint64, ev sdn.Event) bool {
	rep := e.Reps[i]
	logBefore := len(rep.C.Log)
	_, ok := e.applyAs(rep, term, ev)
	leaked := ok || len(rep.C.Log) != logBefore
	if leaked {
		e.Metrics.FencedLeaks++
	}
	return !leaked
}

// drainRetries re-homes failed-over events onto the (new) primary.
// Retry processing is recovery work, so it accrues downtime.
func (e *Ensemble) drainRetries() {
	for len(e.pendingRetry) > 0 {
		evs := e.pendingRetry
		e.pendingRetry = nil
		for _, ev := range evs {
			rep := e.Primary()
			before := rep.C.Stats.TotalCost
			out, ok := e.applyAs(rep, rep.term, ev)
			e.Metrics.DowntimeTicks += rep.C.Stats.TotalCost - before
			if !ok || (out != supervise.OutcomeProcessed && out != supervise.OutcomeHealed) {
				e.Metrics.Lost++
			}
		}
	}
}

// elect runs one deterministic election round: every live replica is
// a candidate; replica j grants its vote to candidate i only when the
// link is bidirectionally intact and i's log is at least as long as
// j's (a stale replica can never win). The winner needs a strict
// majority; ties break to the longest log, then the lowest ID.
func (e *Ensemble) elect() (int, bool) {
	n := len(e.Reps)
	winner, winnerLog := -1, -1
	for i, r := range e.Reps {
		if r.C.State == sdn.StateCrashed {
			continue
		}
		votes := 1 // self
		for j, v := range e.Reps {
			if j == i || v.C.State == sdn.StateCrashed {
				continue
			}
			if !e.reachable(i, j) {
				continue
			}
			if len(v.C.Log) > len(r.C.Log) {
				continue // voter refuses a candidate behind its own log
			}
			votes++
		}
		if votes*2 <= n {
			continue
		}
		if len(r.C.Log) > winnerLog {
			winner, winnerLog = i, len(r.C.Log)
		}
	}
	return winner, winner >= 0
}

// failover deposes the current primary: elect a successor with
// quorum, hand switch mastership to it at the wire under the next
// term, advance the fence, and (when the deposed primary is still
// alive — the split-brain case) prove the fence holds by letting it
// try one stale write and one stale role request. retry, when set, is
// re-homed onto the new primary.
func (e *Ensemble) failover(from *Replica, retry *sdn.Event) bool {
	winner, ok := e.elect()
	if !ok || winner == e.primary {
		e.Metrics.FailedElections++
		e.count("cluster_failed_elections_total")
		return false
	}
	oldID, oldTerm := e.primary, e.term
	e.term++
	e.Metrics.Elections++
	e.count("cluster_elections_total")
	wall := ElectionCost
	granted, err := e.bank.Handoff(e.term)
	if err != nil {
		// A handoff the bank refuses would leave mastership split;
		// back out of the promotion entirely.
		e.term--
		e.Metrics.FailedElections++
		return false
	}
	wall += HandoffCost * granted
	wall += e.recoverDurableLog(oldID, winner, &retry)
	e.fence.Advance(e.term)
	e.primary = winner
	e.Reps[winner].term = e.term
	if e.quorumLostSlots > 0 {
		// Lease the standbys had to wait out counts against the
		// failover wall.
		wall += e.quorumLostSlots * LeaseTickCost
		e.quorumLostSlots = 0
	}
	e.Metrics.Failovers++
	e.Metrics.FailoverTicks = append(e.Metrics.FailoverTicks, wall)
	e.Metrics.DowntimeTicks += wall
	e.count("cluster_failovers_total")
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.Histogram("cluster_failover_wall_ticks").Observe(float64(wall))
	}
	if retry != nil {
		e.pendingRetry = append(e.pendingRetry, *retry)
	}
	old := e.Reps[oldID]
	if old.C.State != sdn.StateCrashed && from == old {
		// Split-brain window: the deposed primary is alive and does
		// not know it was deposed. Its in-flight write and its wire
		// mastership claim must both bounce off the fence.
		e.AttemptStaleWrite(oldID, oldTerm, sdn.Event{
			Kind: sdn.EventConfig, Key: "fence.probe", Value: "stale",
		})
		if rej := e.bank.TryStaleMaster(oldTerm); rej > 0 {
			e.Metrics.WireStaleRejects += rej
			e.Metrics.FencedRejects += rej
		}
	}
	return true
}

// recoverDurableLog replays onto the winner whatever suffix of the
// deposed primary's log was never replicated. A fail-stop crash kills
// the process but not its durable log, so events the primary logged
// between replication slots survive failover — without this, a crash
// mid-slot would silently lose the unshipped tail. A partitioned
// (alive, unreachable) primary's log cannot be read, but partitions
// take effect at slot boundaries, after EndSlot has shipped
// everything, so there is never an unshipped tail to lose. The winner
// follows the deposed primary's whole log: it adopts the tail's
// entries when its own log is a prefix, and the tail's traffic was the
// deposed primary's to forward, so it forwards none of it again.
// Returns the replay cost in ticks; when the tail already contains the
// in-flight retry event (a crash after logging), the retry is
// cancelled so the event is not applied twice.
func (e *Ensemble) recoverDurableLog(oldID, winner int, retry **sdn.Event) int {
	old, win := e.Reps[oldID], e.Reps[winner]
	end := len(old.C.Log)
	if old.C.State != sdn.StateCrashed || end <= len(win.C.Log) {
		return 0
	}
	before := win.C.Stats.TotalCost
	e.follow(win.C, old.C, end)
	if *retry != nil && sameEvent(old.C.Log[end-1], **retry) {
		*retry = nil
	}
	return win.C.Stats.TotalCost - before
}

// sameEvent reports whether a logged event is the same submission as
// an in-flight retry (network messages compare by pointer — the
// supervisor retries the very value it logged).
func sameEvent(logged, retry sdn.Event) bool {
	return logged.Kind == retry.Kind && logged.Key == retry.Key &&
		logged.Value == retry.Value && logged.Service == retry.Service &&
		logged.DPID == retry.DPID && logged.Msg == retry.Msg
}

// EnsureServing is the traffic-path dead-master detector: switches
// notice a dead primary by keepalive timeout (the ofconn read
// deadline) and re-home before packets flow. It fails over
// immediately when the primary is crashed but the ensemble still has
// quorum; management events instead detect the crash on first submit
// through the supervisor.
func (e *Ensemble) EnsureServing() bool {
	rep := e.Primary()
	if rep.C.State != sdn.StateCrashed {
		return true
	}
	return e.failover(rep, nil)
}

// EndSlot finishes one campaign slot. A primary holding quorum
// heartbeats and replicates: every bidirectionally reachable standby
// catches up on at most InboxCapacity events of the primary's log
// suffix, adopting the primary's entries rather than copying them —
// so standby state converges byte-identically without re-forwarding
// the primary's traffic. A primary without quorum burns lease: after
// LeaseSlots slots the majority side elects a successor.
func (e *Ensemble) EndSlot() {
	if e.hasQuorum(e.primary) && e.Primary().C.State != sdn.StateCrashed {
		e.quorumLostSlots = 0
		for i, rep := range e.Reps {
			if i != e.primary && e.reachable(e.primary, i) {
				e.catchUp(rep)
			}
		}
		return
	}
	e.quorumLostSlots++
	e.Metrics.LeaseWaitTicks += LeaseTickCost
	e.Metrics.DowntimeTicks += LeaseTickCost
	if e.quorumLostSlots >= e.cfg.LeaseSlots {
		e.failover(e.Primary(), nil)
	}
}

// catchUp ships the primary's log suffix to one standby and applies
// it. InboxCapacity bounds one slot's shipment; a lagging standby
// finishes catching up over subsequent slots, and the events left for
// them are counted in cluster_inbox_deferred_total. It returns the
// number of events shipped.
func (e *Ensemble) catchUp(rep *Replica) int {
	p := e.Primary()
	have := len(rep.C.Log)
	if rep.C.State == sdn.StateCrashed || have >= len(p.C.Log) {
		return 0
	}
	left := len(p.C.Log) - have
	n := min(left, e.cfg.InboxCapacity)
	if n < left && e.cfg.Metrics != nil {
		e.cfg.Metrics.Counter("cluster_inbox_deferred_total").Add(uint64(left - n))
	}
	// Follow forwards none of the replayed packet-outs: the primary
	// already delivered them, so the standby's punt and delivery
	// queues stay empty for the day it is promoted.
	e.follow(rep.C, p.C, have+n)
	return n
}

// follow catches c up on leader's log through index to and counts how
// the catch-up went: adopted after the O(1) prefix proof, adopted
// after an element-wise comparison, or copied because the logs
// diverge.
func (e *Ensemble) follow(c, leader *sdn.Controller, to int) {
	path, _, _ := c.Follow(leader, to)
	switch path {
	case sdn.FollowAdopted:
		e.count("cluster_catchup_adopted_total")
	case sdn.FollowCompared:
		e.count("cluster_catchup_compared_total")
	case sdn.FollowCopied:
		e.count("cluster_catchup_copied_total")
	}
}

// Sync drives replication to convergence: crashed replicas revived,
// links assumed healed, every standby caught up to the primary. Used
// at campaign end so all replicas can be fingerprint-compared.
func (e *Ensemble) Sync() error {
	e.HealLinks()
	for i := range e.Reps {
		if err := e.Revive(i); err != nil {
			return err
		}
	}
	for {
		moved := 0
		for i, rep := range e.Reps {
			if i != e.primary {
				moved += e.catchUp(rep)
			}
		}
		if moved == 0 {
			return nil
		}
	}
}

// Converged reports whether every replica's log has the primary's
// length (content identity is the fingerprint check's job).
func (e *Ensemble) Converged() bool {
	want := len(e.Primary().C.Log)
	for _, rep := range e.Reps {
		if len(rep.C.Log) != want {
			return false
		}
	}
	return true
}
