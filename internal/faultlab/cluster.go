package faultlab

// Cluster failover campaign (E26): the same seed-deterministic
// schedule played three ways — on an N-replica controller ensemble
// with induced primary crashes, partitions, and asymmetric links; on
// a single supervised controller facing the same crashes (the
// cold-replay baseline); and on an unfaulted single controller (the
// ground truth). Because the ensemble defers slots while leaderless,
// re-homes in-flight events on failover, and replicates the log
// byte-identically, its converged state must fingerprint-match the
// unfaulted run — crashes and all.

import (
	"fmt"
	"math/rand"

	"sdnbugs/internal/cluster"
	"sdnbugs/internal/metrics"
	"sdnbugs/internal/sdn"
	"sdnbugs/internal/supervise"
)

// clusterEpisode is one induced control-plane failure.
type clusterEpisode int

const (
	// epCrashPrimary fail-stops the serving primary.
	epCrashPrimary clusterEpisode = iota
	// epPartitionPrimary isolates the primary from both standbys.
	epPartitionPrimary
	// epAsymPartition isolates the primary and additionally breaks one
	// direction of the standby-standby link, so the first elections
	// fail for want of a bidirectional majority.
	epAsymPartition
	// epHeal restores all links and revives crashed replicas.
	epHeal
)

// buildClusterEpisodes derives the failure schedule from the seed
// alone: disruptions cycle crash → partition → asymmetric, each
// healed a few slots after the lease would expire, with breathing
// room between episodes and a quiet tail for convergence.
func buildClusterEpisodes(seed int64, slots, leaseSlots int) map[int]clusterEpisode {
	rng := rand.New(rand.NewSource(seed*15485863 + 11))
	eps := make(map[int]clusterEpisode)
	kinds := []clusterEpisode{epCrashPrimary, epPartitionPrimary, epAsymPartition}
	cursor := 40 + rng.Intn(30)
	k := 0
	for cursor < slots-(leaseSlots+60) {
		eps[cursor] = kinds[k%len(kinds)]
		k++
		heal := cursor + leaseSlots + 4 + rng.Intn(10)
		eps[heal] = epHeal
		cursor = heal + 30 + rng.Intn(40)
	}
	return eps
}

// ClusterCampaignConfig parameterizes one failover campaign.
type ClusterCampaignConfig struct {
	Seed int64
	// Events is the schedule length (default 1500 slots).
	Events int
	// Replicas is the ensemble size (default 3).
	Replicas int
	// LeaseSlots is the standby lease in slots (default 3).
	LeaseSlots int
	// Metrics, when set, receives the cluster_* counters and the
	// failover-wall histogram. Purely observational.
	Metrics *metrics.Registry
}

func (c ClusterCampaignConfig) withDefaults() ClusterCampaignConfig {
	if c.Events <= 0 {
		c.Events = 1500
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.LeaseSlots <= 0 {
		c.LeaseSlots = 3
	}
	return c
}

// ClusterRunResult is one mode's aggregate. All fields are logical,
// so results are byte-identical across runs at the same seed.
type ClusterRunResult struct {
	Mode string

	Offered   int
	Processed int
	Lost      int

	Elections        int
	FailedElections  int
	Failovers        int
	FencedRejects    int
	FencedLeaks      int
	WireStaleRejects int
	LeaseWaitTicks   int

	Restarts     int
	ColdRestores int

	MeanFailoverTicks    float64
	MeanColdRestoreTicks float64

	UptimeTicks   int
	DowntimeTicks int

	BroadcastProbes   int
	WireFaultsSkipped int

	LogLen      int
	Fingerprint string
	// ReplicaFingerprints holds every replica's converged fingerprint
	// (cluster mode only) — all must be equal.
	ReplicaFingerprints []string
}

// TimeAvailability is uptime over total logical time.
func (r ClusterRunResult) TimeAvailability() float64 {
	return ratio(r.UptimeTicks, r.UptimeTicks+r.DowntimeTicks, 1)
}

// ClusterCampaignResult bundles the three modes.
type ClusterCampaignResult struct {
	Seed   int64
	Events int

	Cluster   ClusterRunResult
	Baseline  ClusterRunResult
	Unfaulted ClusterRunResult
}

// Identical reports the campaign's core replication claim: the
// ensemble's converged state — and every individual replica — is
// byte-identical to the unfaulted single-controller run.
func (r ClusterCampaignResult) Identical() bool {
	if r.Cluster.Fingerprint == "" || r.Cluster.Fingerprint != r.Unfaulted.Fingerprint {
		return false
	}
	for _, fp := range r.Cluster.ReplicaFingerprints {
		if fp != r.Cluster.Fingerprint {
			return false
		}
	}
	return true
}

// Fingerprint is a canonical serialization for byte-identity checks
// across runs at the same seed.
func (r ClusterCampaignResult) Fingerprint() string {
	return fmt.Sprintf("%+v", r)
}

// RunClusterCampaign plays the schedule in all three modes.
func RunClusterCampaign(cfg ClusterCampaignConfig) (ClusterCampaignResult, error) {
	cfg = cfg.withDefaults()
	base, err := newController(nil)
	if err != nil {
		return ClusterCampaignResult{}, err
	}
	truth, err := newController(nil)
	if err != nil {
		return ClusterCampaignResult{}, err
	}
	sched := buildSchedule(cfg.Seed, cfg.Events, truth.Net.Hosts(), truth.Net.Switches())
	episodes := buildClusterEpisodes(cfg.Seed, cfg.Events, cfg.LeaseSlots)
	res := ClusterCampaignResult{Seed: cfg.Seed, Events: cfg.Events}

	ens, err := cluster.New(cluster.Config{
		Replicas:   cfg.Replicas,
		LeaseSlots: cfg.LeaseSlots,
		Factory:    func() (*sdn.Controller, error) { return newController(nil) },
		Classify:   ClassifyEvent,
		Metrics:    cfg.Metrics,
	})
	if err != nil {
		return res, err
	}
	er := &ensembleRuntime{clusterMode: clusterMode{res: ClusterRunResult{Mode: "cluster"}}, ens: ens, episodes: episodes}
	p := NewPlayer(er, sched)
	if err := p.Play(); err != nil {
		return res, err
	}
	// Quiet tail: heal everything, drain any leftover deferred slots,
	// and drive replication to convergence.
	ens.HealLinks()
	ens.EnsureServing()
	for _, s := range er.pending {
		if err := p.PlaySlot(s); err != nil {
			return res, err
		}
	}
	if err := ens.Sync(); err != nil {
		return res, err
	}
	res.Cluster = er.result()

	br := &baselineRuntime{clusterMode: clusterMode{res: ClusterRunResult{Mode: "baseline-single"}},
		sup: newSupervisor(base, supervise.Config{}), episodes: episodes}
	if err := NewPlayer(br, sched).Play(); err != nil {
		return res, err
	}
	res.Baseline = br.result()

	ur := &unfaultedRuntime{clusterMode: clusterMode{res: ClusterRunResult{Mode: "unfaulted"}}, c: truth}
	if err := NewPlayer(ur, sched).Play(); err != nil {
		return res, err
	}
	res.Unfaulted = ur.finish(truth)
	return res, nil
}

// clusterMode is what the three cluster-campaign runtimes share.
// Wire-fault slots are skipped identically in all modes (the campaign
// induces failures at the control plane, not the wire), and broadcast
// probes are counted, not judged.
type clusterMode struct{ res ClusterRunResult }

func (m *clusterMode) Wire(Slot, *rand.Rand) error {
	m.res.WireFaultsSkipped++
	return nil
}

func (m *clusterMode) Probe(s Slot, flood func(Slot) int) {
	m.res.BroadcastProbes++
	flood(s)
}

// finish records the final controller's log length and state
// fingerprint.
func (m *clusterMode) finish(c *sdn.Controller) ClusterRunResult {
	m.res.LogLen = len(c.Log)
	m.res.Fingerprint = cluster.StateFingerprint(c)
	return m.res
}

// ensembleRuntime plays the schedule on the replicated ensemble. While
// the ensemble is leaderless (partitioned primary, election pending)
// slots are deferred, not dropped: they replay in order the moment a
// primary is serving again, which is what keeps the final state
// byte-identical to the unfaulted run.
type ensembleRuntime struct {
	clusterMode
	ens      *cluster.Ensemble
	episodes map[int]clusterEpisode
	pending  []Slot
}

// Net re-homes traffic before packets flow: switches notice a dead
// master by keepalive timeout and the ensemble fails over before
// injection, so the packets land on the serving net.
func (r *ensembleRuntime) Net() *sdn.Network {
	r.ens.EnsureServing()
	return r.ens.Primary().C.Net
}

// Submit sends events through the ensemble. Management events reach a
// crashed primary through the supervisor, whose exhausted restart
// budget escalates to the ensemble failover — the detection-by-request
// path.
func (r *ensembleRuntime) Submit(events []sdn.Event) {
	r.ens.Primary().C.ReserveLog(len(events))
	for _, ev := range events {
		r.ens.Submit(ev)
	}
}

// Slot applies the slot's failure episode, then skips a wire slot,
// defers the slot while leaderless, or replays the deferred slots and
// plays it; every slot ends with a replication round.
func (r *ensembleRuntime) Slot(i int, s Slot, play func(Slot) error) error {
	if ep, ok := r.episodes[i]; ok {
		applyEpisode(r.ens, ep)
	}
	var err error
	switch {
	case s.Kind == SlotWireFault:
		err = play(s)
	case !r.ens.Available():
		r.pending = append(r.pending, s)
	default:
		for _, p := range r.pending {
			if err = play(p); err != nil {
				return err
			}
		}
		r.pending = r.pending[:0]
		err = play(s)
	}
	r.ens.EndSlot()
	return err
}

// result folds the ensemble metrics and every replica's converged
// fingerprint into the mode result.
func (r *ensembleRuntime) result() ClusterRunResult {
	m := r.ens.Metrics
	res := &r.res
	res.Offered = m.Offered
	res.Processed = m.Processed
	res.Lost = m.Lost
	res.Elections = m.Elections
	res.FailedElections = m.FailedElections
	res.Failovers = m.Failovers
	res.FencedRejects = m.FencedRejects
	res.FencedLeaks = m.FencedLeaks
	res.WireStaleRejects = m.WireStaleRejects
	res.LeaseWaitTicks = m.LeaseWaitTicks
	res.MeanFailoverTicks = m.MeanFailoverTicks()
	res.UptimeTicks = m.UptimeTicks
	res.DowntimeTicks = m.DowntimeTicks
	for _, rep := range r.ens.Reps {
		res.ReplicaFingerprints = append(res.ReplicaFingerprints, cluster.StateFingerprint(rep.C))
	}
	return r.finish(r.ens.Primary().C)
}

// applyEpisode translates one failure episode into ensemble state.
func applyEpisode(ens *cluster.Ensemble, ep clusterEpisode) {
	switch ep {
	case epCrashPrimary:
		ens.CrashPrimary()
	case epPartitionPrimary:
		ens.Isolate(ens.Primary().ID)
	case epAsymPartition:
		p := ens.Primary().ID
		ens.Isolate(p)
		// Break one direction between the first two standbys.
		var standbys []int
		for i := range ens.Reps {
			if i != p {
				standbys = append(standbys, i)
			}
		}
		if len(standbys) >= 2 {
			ens.BreakLink(standbys[0], standbys[1])
		}
	case epHeal:
		ens.HealLinks()
		for i := range ens.Reps {
			_ = ens.Revive(i)
		}
	}
}

// baselineRuntime plays the schedule on a single supervised controller
// facing the same crash episodes. Partitions and asymmetric links are
// no-ops (there is nothing to partition from); every crash is healed
// by a supervised restart with a cold full-log replay — the recovery
// cost failover is measured against.
type baselineRuntime struct {
	clusterMode
	sup      *supervise.Supervisor
	episodes map[int]clusterEpisode
}

func (r *baselineRuntime) Net() *sdn.Network { return r.sup.C.Net }

func (r *baselineRuntime) Submit(events []sdn.Event) {
	r.sup.C.ReserveLog(len(events))
	for _, ev := range events {
		r.sup.Submit(ev)
	}
}

func (r *baselineRuntime) Slot(i int, s Slot, play func(Slot) error) error {
	if ep, ok := r.episodes[i]; ok && ep == epCrashPrimary {
		r.sup.C.State = sdn.StateCrashed
	}
	return play(s)
}

// result folds the supervisor's metrics into the mode result.
func (r *baselineRuntime) result() ClusterRunResult {
	var m CampaignResult
	m.foldSupervisor(r.sup)
	r.res.Offered = m.Offered
	r.res.Processed = m.Processed
	r.res.Lost = m.Lost
	r.res.Restarts = m.Restarts
	r.res.ColdRestores = m.ColdRestores
	r.res.MeanColdRestoreTicks = m.MeanColdRestoreTicks()
	r.res.UptimeTicks = m.UptimeTicks
	r.res.DowntimeTicks = m.DowntimeTicks
	return r.finish(r.sup.C)
}

// unfaultedRuntime plays the schedule on one clean controller with no
// failures — the ground truth the cluster must match byte-for-byte.
type unfaultedRuntime struct {
	clusterMode
	c *sdn.Controller
}

func (r *unfaultedRuntime) Net() *sdn.Network { return r.c.Net }

func (r *unfaultedRuntime) Submit(events []sdn.Event) {
	r.c.ReserveLog(len(events))
	for _, ev := range events {
		r.res.Offered++
		before := r.c.Stats.TotalCost
		if err := r.c.Submit(ev); err != nil {
			r.res.Lost++
			continue
		}
		r.res.UptimeTicks += r.c.Stats.TotalCost - before
		r.res.Processed++
	}
}

func (r *unfaultedRuntime) Slot(_ int, s Slot, play func(Slot) error) error { return play(s) }
