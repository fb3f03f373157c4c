package trackerd

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"path"
	"strings"
	"time"

	"sdnbugs/internal/durable"
	"sdnbugs/internal/metrics"
	"sdnbugs/internal/tracker"
)

// Dialect names for ProjectConfig.
const (
	DialectJIRA   = "jira"
	DialectGitHub = "github"
)

// Config describes a multi-tenant tracker service.
type Config struct {
	// Root is the state directory; each project shard lives in
	// Root/<tenant>/<project>.
	Root string
	// Durable is the option template every shard is opened with (FS,
	// GroupCommit, GroupWindow, SnapshotEvery, TakeOver).
	Durable durable.Options
	// Metrics receives the service's counters, histograms, and shard
	// gauges; nil creates a private registry.
	Metrics *metrics.Registry
	// Tenants are the hosted tenants.
	Tenants []TenantConfig
}

// TenantConfig describes one tenant: its projects plus the rate and
// concurrency limits all of its routes share.
type TenantConfig struct {
	// Name is the tenant's route segment: /t/<name>/...
	Name string
	// RatePerSec is the tenant's sustained request budget (token
	// bucket); 0 means unlimited.
	RatePerSec float64
	// Burst is the bucket depth (default 1 when rate limiting is on).
	Burst int
	// MaxInflight caps concurrently served requests; beyond it the
	// tenant sheds load with 429 + Retry-After. 0 means unlimited.
	MaxInflight int
	// Projects are the tenant's hosted trackers.
	Projects []ProjectConfig
}

// ProjectConfig describes one hosted tracker within a tenant.
type ProjectConfig struct {
	// Name is the project's route segment: /t/<tenant>/<name>/...
	Name string
	// Dialect selects the wire API: DialectJIRA or DialectGitHub.
	Dialect string
	// Repo is the owner/name path a GitHub-dialect project answers
	// under (e.g. "faucetsdn/faucet"); ignored for JIRA.
	Repo string
	// Controller names the controller whose "<controller>#N" issue IDs
	// a GitHub-dialect project serves; ignored for JIRA.
	Controller string
}

// Shard is one tenant×project backing store: a crash-consistent
// DurableStore for writes and a snapshot-serving Replica for reads, so
// list traffic never blocks (or is blocked by) the writers.
type Shard struct {
	Tenant  string
	Project string
	DS      *tracker.DurableStore
	Replica *tracker.Replica
}

// Service hosts N tenants × M projects behind one engine: shared
// dialect handlers, per-tenant rate limits and backpressure, durable
// shards, and a metrics registry exposed at /metricz.
type Service struct {
	mux    *http.ServeMux
	reg    *metrics.Registry
	shards map[string]*Shard
	order  []string

	requests *metrics.Counter
	latency  *metrics.Histogram
}

// New opens every shard and mounts every route. On error, shards opened
// so far are closed.
func New(cfg Config) (*Service, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Service{
		mux:      http.NewServeMux(),
		reg:      reg,
		shards:   make(map[string]*Shard),
		requests: reg.Counter("http.requests"),
		latency:  reg.Histogram("http.request_ms"),
	}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" || strings.ContainsAny(tc.Name, "/ ") {
			_ = s.Close()
			return nil, fmt.Errorf("trackerd: bad tenant name %q", tc.Name)
		}
		limiter := newTenantLimiter(tc, reg)
		for _, pc := range tc.Projects {
			if err := s.mountProject(cfg, tc, pc, limiter); err != nil {
				_ = s.Close()
				return nil, err
			}
		}
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metricz", reg)
	s.registerGauges()
	return s, nil
}

func (s *Service) mountProject(cfg Config, tc TenantConfig, pc ProjectConfig, limiter *tenantLimiter) error {
	if pc.Name == "" || strings.ContainsAny(pc.Name, "/ ") {
		return fmt.Errorf("trackerd: bad project name %q in tenant %s", pc.Name, tc.Name)
	}
	key := tc.Name + "/" + pc.Name
	if _, dup := s.shards[key]; dup {
		return fmt.Errorf("trackerd: duplicate project %s", key)
	}
	d, err := durable.Open(path.Join(cfg.Root, tc.Name, pc.Name), cfg.Durable)
	if err != nil {
		return fmt.Errorf("trackerd: open shard %s: %w", key, err)
	}
	ds, err := tracker.NewDurableStore(d)
	if err != nil {
		_ = d.Close()
		return fmt.Errorf("trackerd: load shard %s: %w", key, err)
	}
	shard := &Shard{Tenant: tc.Name, Project: pc.Name, DS: ds}
	s.shards[key] = shard
	s.order = append(s.order, key)

	prefix := "/t/" + key
	switch pc.Dialect {
	case DialectJIRA:
		api := newJIRAAPI(ds.Store())
		shard.Replica = api.src
		s.mux.HandleFunc("GET "+prefix+"/rest/api/2/search", limiter.wrap(api.handleSearch))
		s.mux.HandleFunc("GET "+prefix+"/rest/api/2/issue/{key}", limiter.wrap(api.handleIssue))
	case DialectGitHub:
		ctl, err := tracker.ParseController(pc.Controller)
		if err != nil {
			return fmt.Errorf("trackerd: project %s: %w", key, err)
		}
		owner, name, ok := strings.Cut(pc.Repo, "/")
		if !ok || owner == "" || name == "" {
			return fmt.Errorf("trackerd: project %s: bad repo path %q", key, pc.Repo)
		}
		api := newGitHubAPI(ds.Store(), ctl)
		shard.Replica = api.src
		s.mux.HandleFunc("GET "+prefix+"/repos/"+owner+"/"+name+"/issues", limiter.wrap(api.handleList))
		s.mux.HandleFunc("GET "+prefix+"/repos/"+owner+"/"+name+"/issues/{number}", limiter.wrap(api.handleGet))
	default:
		return fmt.Errorf("trackerd: project %s: unknown dialect %q", key, pc.Dialect)
	}
	s.mux.HandleFunc("POST "+prefix+"/admin/ingest", s.handleIngest(shard))
	return nil
}

// registerGauges exposes shard sizes, aggregate WAL commit stats,
// aggregate replica refresh and encode counts, and the page buffers
// too large to pool (process-wide) at scrape time — the
// observability seam between the serving layer and the durability and
// replica layers, without either importing metrics.
func (s *Service) registerGauges() {
	for _, key := range s.order {
		shard := s.shards[key]
		s.reg.GaugeFunc("shard."+shard.Tenant+"."+shard.Project+".issues", func() float64 {
			return float64(shard.DS.Len())
		})
	}
	sum := func(pick func(*Shard) uint64) func() float64 {
		return func() float64 {
			var total uint64
			for _, shard := range s.shards {
				total += pick(shard)
			}
			return float64(total)
		}
	}
	s.reg.GaugeFunc("durable.records", sum(func(sh *Shard) uint64 { return sh.DS.Durable().CommitStats().Records }))
	s.reg.GaugeFunc("durable.syncs", sum(func(sh *Shard) uint64 { return sh.DS.Durable().CommitStats().Syncs }))
	s.reg.GaugeFunc("durable.batches", sum(func(sh *Shard) uint64 { return sh.DS.Durable().CommitStats().Batches }))
	s.reg.GaugeFunc("replica.refreshes", sum(func(sh *Shard) uint64 { return sh.Replica.Stats().Refreshes }))
	s.reg.GaugeFunc("replica.encodes", sum(func(sh *Shard) uint64 { return sh.Replica.Stats().Encodes }))
	s.reg.GaugeFunc("page_buffers.dropped", func() float64 { return float64(pageBuffersDropped.Load()) })
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	start := time.Now()
	s.mux.ServeHTTP(w, r)
	s.latency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// Metrics returns the service's registry.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// Shard returns the backing shard for tenant/project, or nil.
func (s *Service) Shard(tenant, project string) *Shard {
	return s.shards[tenant+"/"+project]
}

// Shards returns every shard in mount order.
func (s *Service) Shards() []*Shard {
	out := make([]*Shard, 0, len(s.order))
	for _, key := range s.order {
		out = append(out, s.shards[key])
	}
	return out
}

// Close closes every shard, releasing journals and locks.
func (s *Service) Close() error {
	var errs []error
	for _, key := range s.order {
		if err := s.shards[key].DS.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %s: %w", key, err))
		}
	}
	return errors.Join(errs...)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, struct {
		Status string `json:"status"`
		Shards int    `json:"shards"`
	}{"ok", len(s.shards)})
}

// maxIngestLine is the longest issue encoding one ingest line may
// carry; a longer line answers 400.
const maxIngestLine = 4 << 20

// handleIngest is the admin write path: a newline-delimited stream of
// canonical issue encodings (tracker.EncodeIssue), each journaled into
// the shard before the next is read. Readers keep serving from the
// replica's snapshot throughout.
func (s *Service) handleIngest(shard *Shard) http.HandlerFunc {
	ingested := s.reg.Counter("ingest." + shard.Tenant + "." + shard.Project + ".issues")
	return func(w http.ResponseWriter, r *http.Request) {
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(nil, maxIngestLine)
		n := 0
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			iss, err := tracker.DecodeIssue(line)
			if err != nil {
				http.Error(w, fmt.Sprintf("line %d: %v", n+1, err), http.StatusBadRequest)
				return
			}
			if err := shard.DS.Put(iss); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			n++
		}
		if err := sc.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ingested.Add(uint64(n))
		writeJSON(w, struct {
			Ingested int `json:"ingested"`
		}{n})
	}
}
