package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sdnbugs/internal/corpus"
	"sdnbugs/internal/diskfault"
	"sdnbugs/internal/durable"
	"sdnbugs/internal/tracker"
	"sdnbugs/internal/trackerd"
)

// Fixed parameters of the tracker workload.
const (
	trTenants = 4
	// trRate is the open-loop request rate, about a sixth of the
	// saturation rate on a 2-core host: at about half of it, queueing
	// amplified run-to-run noise past any usable bound.
	trRate = 1_000.0
	// trConns is the number of client connections and load goroutines.
	trConns = 2
	// trBurst is the request count of one closed-loop saturation burst.
	trBurst = 4_000
	// trSetups is how many times the service is opened and seeded.
	trSetups = 5
	// trDiskProbePuts is how many records the traced run's fsync probe
	// writes.
	trDiskProbePuts = 200
	// trSeedWriters is how many goroutines seed one tenant, so group
	// commit batches the seeding as it would concurrent writers.
	trSeedWriters = 8
	// trSearchPage and trListPage are the page sizes of list requests.
	trSearchPage = 50
	trListPage   = 30
)

// Request kinds of the tracker mix, in mix order: 30 % JIRA search
// pages, 30 % GitHub list pages, 30 % single-issue GETs and 10 %
// ingests of one edited existing issue.
const (
	kindSearch = iota
	kindList
	kindGet
	kindIngest
)

// trRequest is one pre-built request and what a correct answer holds.
type trRequest struct {
	kind   int
	method string
	url    string
	body   []byte
	want   string // what the body of a GET must contain
}

// tenantData is one tenant's seeded issues, split by shard.
type tenantData struct {
	jira, github []tracker.Issue
}

// syncTimer collects the durations of journal fsyncs.
type syncTimer struct {
	mu  sync.Mutex
	all []float64 // microseconds
}

func (s *syncTimer) add(d time.Duration) {
	s.mu.Lock()
	s.all = append(s.all, micros(d))
	s.mu.Unlock()
}

func (s *syncTimer) reset() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.all
	s.all = nil
	return out
}

// timedFS wraps a filesystem so every file's Sync is timed.
type timedFS struct {
	diskfault.FS
	t *syncTimer
}

type timedFile struct {
	diskfault.File
	t *syncTimer
}

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.t}, nil
}

func (f timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.t.add(time.Since(t0))
	return err
}

// pageCacheFS is the real filesystem with fsync made a no-op: journal
// writes still go through the kernel, but no request waits for the
// device. On shared virtual disks fsync latency moved 4x between runs,
// more than any bound a regression gate could hold, so the service
// runs on pageCacheFS and diskSyncProbe measures the device on its own.
type pageCacheFS struct{ diskfault.FS }

type pageCacheFile struct{ diskfault.File }

func (f pageCacheFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return pageCacheFile{file}, nil
}

func (pageCacheFile) Sync() error { return nil }

// diskSyncProbe times real journal fsyncs: trConns writers put n 1 KiB
// records through one group-committed durable.Store in dir.
func diskSyncProbe(dir string, n int) ([]float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	t := &syncTimer{}
	st, err := durable.Open(dir, durable.Options{FS: timedFS{diskfault.OS(), t}, GroupCommit: true})
	if err != nil {
		return nil, err
	}
	value := bytes.Repeat([]byte("x"), 1024)
	errs := make([]error, trConns)
	var wg sync.WaitGroup
	for w := 0; w < trConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += trConns {
				errs[w] = st.Put("rec/"+strconv.Itoa(i), value)
			}
		}()
	}
	wg.Wait()
	errs = append(errs, st.Close(), os.RemoveAll(dir))
	return t.reset(), errors.Join(errs...)
}

// trackerRig is one opened and seeded service on a fresh state
// directory.
type trackerRig struct {
	svc     *trackerd.Service
	dir     string
	tenants []tenantData
}

func tenantName(i int) string { return "t" + strconv.Itoa(i) }

// openTracker opens the 4-tenant service (a JIRA "bugs" and a GitHub
// "faucet" shard per tenant, group commit on) in dir, on pageCacheFS,
// and seeds tenant i with corpus.Generate(seed+i).
func openTracker(dir string, seed int64) (*trackerRig, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	r := &trackerRig{dir: dir}
	opts := durable.Options{FS: pageCacheFS{diskfault.OS()}, GroupCommit: true}
	var tenants []trackerd.TenantConfig
	for i := 0; i < trTenants; i++ {
		tenants = append(tenants, trackerd.TenantConfig{
			Name: tenantName(i),
			Projects: []trackerd.ProjectConfig{
				{Name: "bugs", Dialect: trackerd.DialectJIRA},
				{Name: "faucet", Dialect: trackerd.DialectGitHub, Repo: "faucetsdn/faucet", Controller: "FAUCET"},
			},
		})
	}
	svc, err := trackerd.New(trackerd.Config{Root: dir, Durable: opts, Tenants: tenants})
	if err != nil {
		return nil, err
	}
	r.svc = svc
	for i := 0; i < trTenants; i++ {
		c, err := corpus.Generate(seed + int64(i))
		if err != nil {
			_ = r.close() // the generation error is the one to report
			return nil, err
		}
		var td tenantData
		for _, iss := range c.Issues {
			if tracker.TrackerFor(iss.Controller) == tracker.KindJIRA {
				td.jira = append(td.jira, iss)
			} else {
				td.github = append(td.github, iss)
			}
		}
		if err := r.seed(i, td); err != nil {
			_ = r.close() // the seeding error is the one to report
			return nil, err
		}
		r.tenants = append(r.tenants, td)
	}
	return r, nil
}

// seed writes one tenant's issues through trSeedWriters goroutines.
func (r *trackerRig) seed(i int, td tenantData) error {
	type put struct {
		shard *trackerd.Shard
		iss   tracker.Issue
	}
	work := make(chan put)
	errs := make([]error, trSeedWriters)
	var wg sync.WaitGroup
	for w := 0; w < trSeedWriters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				if err := p.shard.DS.Put(p.iss); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}()
	}
	jira, gh := r.svc.Shard(tenantName(i), "bugs"), r.svc.Shard(tenantName(i), "faucet")
	for _, iss := range td.jira {
		work <- put{jira, iss}
	}
	for _, iss := range td.github {
		work <- put{gh, iss}
	}
	close(work)
	wg.Wait()
	return errors.Join(errs...)
}

func (r *trackerRig) close() error {
	err := r.svc.Close()
	return errors.Join(err, os.RemoveAll(r.dir))
}

// genRequests draws n requests of the mix from the seed. Ingests edit
// an existing issue, so shard sizes never change.
func genRequests(seed int64, n int, tenants []tenantData) ([]trRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]trRequest, n)
	for i := range reqs {
		t := rng.Intn(len(tenants))
		td := tenants[t]
		base := "/t/" + tenantName(t)
		jiraBase, ghBase := base+"/bugs", base+"/faucet/repos/faucetsdn/faucet/issues"
		switch x := rng.Intn(10); {
		case x < 3:
			start := rng.Intn(max(len(td.jira)-trSearchPage, 1))
			reqs[i] = trRequest{kind: kindSearch, method: http.MethodGet,
				url: fmt.Sprintf("%s/rest/api/2/search?maxResults=%d&startAt=%d", jiraBase, trSearchPage, start)}
		case x < 6:
			page := 1 + rng.Intn(max(len(td.github)/trListPage, 1))
			reqs[i] = trRequest{kind: kindList, method: http.MethodGet,
				url: fmt.Sprintf("%s?per_page=%d&page=%d", ghBase, trListPage, page)}
		case x < 9:
			if rng.Intn(2) == 0 {
				iss := td.jira[rng.Intn(len(td.jira))]
				reqs[i] = trRequest{kind: kindGet, method: http.MethodGet,
					url: jiraBase + "/rest/api/2/issue/" + iss.ID, want: `"key":"` + iss.ID + `"`}
			} else {
				iss := td.github[rng.Intn(len(td.github))]
				num, err := trackerd.IssueNumber(iss.ID)
				if err != nil {
					return nil, err
				}
				reqs[i] = trRequest{kind: kindGet, method: http.MethodGet,
					url: ghBase + "/" + strconv.Itoa(num), want: `"number":` + strconv.Itoa(num) + `,`}
			}
		default:
			shard, pool := "/bugs", td.jira
			if rng.Intn(2) == 0 {
				shard, pool = "/faucet", td.github
			}
			iss := pool[rng.Intn(len(pool))]
			iss.Title = fmt.Sprintf("%s (edit %d)", iss.Title, i)
			line, err := tracker.EncodeIssue(iss)
			if err != nil {
				return nil, err
			}
			reqs[i] = trRequest{kind: kindIngest, method: http.MethodPost,
				url: base + shard + "/admin/ingest", body: append(line, '\n')}
		}
	}
	return reqs, nil
}

// fullCheckEvery is how often (by request index) a response body is
// fully decoded. Decoding every body would take a fifth of the two
// cores the server shares with its client; every other body gets the
// framing check only.
const fullCheckEvery = 4

// checkBody is the per-response gate. Every body must be one framed
// JSON value of the route's shape; every fullCheckEvery-th one must
// also decode and hold what the request asked for — a non-empty page,
// the requested issue, or one ingested record.
func checkBody(req trRequest, i int, body []byte) error {
	open := byte('{')
	if req.kind == kindList {
		open = '['
	}
	ok := len(body) > 2 && body[0] == open && body[len(body)-1] == '\n'
	if ok && i%fullCheckEvery == 0 {
		ok = json.Valid(body)
		switch req.kind {
		case kindSearch:
			ok = ok && bytes.Contains(body, []byte(`"issues":[{`))
		case kindList:
			ok = ok && bytes.HasPrefix(body, []byte(`[{`))
		case kindGet:
			ok = ok && bytes.Contains(body, []byte(req.want))
		case kindIngest:
			ok = ok && bytes.Contains(body, []byte(`"ingested":1}`))
		}
	}
	if !ok {
		return fmt.Errorf("tracker: bad %s %s response: %.120q", req.method, req.url, body)
	}
	return nil
}

// trClient issues requests over at most trConns connections, checks
// every answer, and collects the failures.
type trClient struct {
	base   string
	hc     *http.Client
	failed atomic.Int64
	errMu  sync.Mutex
	err    error
}

// reqHeader carries the request index to the traced handler wrapper.
const reqHeader = "X-Perfbench-Req"

// do sends one request and reads the answer into buf, which each load
// goroutine reuses so the client adds little garbage of its own. It
// returns the body, or nil after counting a failure.
func (c *trClient) do(req trRequest, i int, buf *bytes.Buffer) []byte {
	hr, err := http.NewRequest(req.method, c.base+req.url, bytes.NewReader(req.body))
	if err == nil {
		hr.Header.Set(reqHeader, strconv.Itoa(i))
		var resp *http.Response
		if resp, err = c.hc.Do(hr); err == nil {
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
				err = fmt.Errorf("tracker: %s %s: status %d", req.method, req.url, resp.StatusCode)
			}
		}
	}
	if err != nil {
		c.fail(err)
		return nil
	}
	return buf.Bytes()
}

// check validates a response body outside the timed region.
func (c *trClient) check(req trRequest, i int, body []byte) {
	if body == nil {
		return // already counted as failed
	}
	if err := checkBody(req, i, body); err != nil {
		c.fail(err)
	}
}

func (c *trClient) fail(err error) {
	c.failed.Add(1)
	c.errMu.Lock()
	c.err = errors.Join(c.err, err)
	c.errMu.Unlock()
}

// handlerTimer is the traced run's http.Handler wrapper: it times the
// service's handling of each request, indexed by the request header.
type handlerTimer struct {
	next http.Handler
	ns   []atomic.Int64
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	if i, err := strconv.Atoi(r.Header.Get(reqHeader)); err == nil && i >= 0 && i < len(h.ns) {
		h.ns[i].Store(int64(time.Since(t0)))
	}
}

func runTracker(cfg runConfig) (outcome, error) {
	var setups []float64
	var rig *trackerRig
	dir := filepath.Join(cfg.stateDir, "tracker")
	for i := 0; i < trSetups; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return outcome{}, err
			}
		}
		t0 := time.Now()
		var err error
		if rig, err = openTracker(dir, cfg.seed); err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out, err := driveTracker(cfg, rig)
	err = errors.Join(err, rig.close())
	if err != nil {
		return outcome{}, err
	}
	out.e2e["setup_s"] = median(setups)
	return out, nil
}

// driveTracker serves the seeded service over loopback HTTP and runs
// the open-loop phase, then the closed-loop saturation bursts.
func driveTracker(cfg runConfig, rig *trackerRig) (outcome, error) {
	out := outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	phaseSecs := cfg.seconds / 2
	reqs, err := genRequests(cfg.seed, int(trRate*phaseSecs), rig.tenants)
	if err != nil {
		return out, err
	}
	burst, err := genRequests(cfg.seed+1, trBurst, rig.tenants)
	if err != nil {
		return out, err
	}
	sizes := map[*trackerd.Shard]int{}
	for _, sh := range rig.svc.Shards() {
		sizes[sh] = sh.DS.Len()
	}
	var handler http.Handler = rig.svc
	var ht *handlerTimer
	if cfg.tr != nil {
		ht = &handlerTimer{next: rig.svc, ns: make([]atomic.Int64, len(reqs))}
		handler = ht
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		<-served
	}()
	tr := &http.Transport{MaxConnsPerHost: trConns, MaxIdleConnsPerHost: trConns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	c := &trClient{base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}

	// Open loop at trRate: trConns workers take requests in order and
	// send each when due, so a stall delays the requests behind it.
	writes := 0
	for _, r := range reqs {
		if r.kind == kindIngest {
			writes++
		}
	}
	var commits0 durable.CommitStats
	for _, sh := range rig.svc.Shards() {
		commits0 = addCommits(commits0, sh.DS.Durable().CommitStats())
	}
	before := readRuntimeCounters()
	ol := newOpenLoop(newSchedule(time.Now().Add(5*time.Millisecond), trRate), len(reqs))
	clientNS := make([]float64, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < trConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				free := time.Now()
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if d := time.Until(ol.sched.due(i)); d > 0 {
					time.Sleep(d)
				}
				t0 := time.Now()
				ol.sentAt(i, t0, free)
				body := c.do(reqs[i], i, &buf)
				t1 := time.Now()
				ol.doneAt(i, t1)
				c.check(reqs[i], i, body)
				clientNS[i] = float64(t1.Sub(t0).Nanoseconds())
				if cfg.tr != nil {
					cfg.tr.record("http."+kindName(reqs[i].kind), -1, int64(i), t0, t1)
				}
			}
		}()
	}
	wg.Wait()
	rc := readRuntimeCounters().sub(before)
	if err := ol.validate(); err != nil {
		return out, err
	}
	latency := ol.latencies()
	out.e2e["latency_p50_us"] = windowedPercentile(latency, latencyWindows, 50)
	out.layer["latency.p90_us"] = windowedPercentile(latency, latencyWindows, 90)
	out.layer["latency.p99_us"] = windowedPercentile(latency, latencyWindows, 99)
	if cfg.tr != nil {
		var commits durable.CommitStats
		for _, sh := range rig.svc.Shards() {
			commits = addCommits(commits, sh.DS.Durable().CommitStats())
		}
		syncs := float64(commits.Syncs - commits0.Syncs)
		records := float64(commits.Records - commits0.Records)
		var readH, writeH, overhead []float64
		for i, r := range reqs {
			h := float64(ht.ns[i].Load())
			if r.kind == kindIngest {
				writeH = append(writeH, h/1e3)
			} else {
				readH = append(readH, h/1e3)
				overhead = append(overhead, (clientNS[i]-h)/1e3)
			}
		}
		late, _ := tailPercentile(ol.late, 99)
		out.layer["gen.late_p99_us"] = late
		out.layer["trackerd.read_handler_p50_us"], _ = percentile(readH, 50)
		out.layer["trackerd.write_handler_p50_us"], _ = percentile(writeH, 50)
		out.layer["http.client_overhead_p50_us"], _ = percentile(overhead, 50)
		syncUS, err := diskSyncProbe(filepath.Join(cfg.stateDir, "disk-probe"), trDiskProbePuts)
		if err != nil {
			return out, err
		}
		out.layer["durable.sync_p50_us"], _ = percentile(syncUS, 50)
		out.layer["durable.syncs_per_write"] = syncs / float64(max(writes, 1))
		out.layer["durable.records_per_sync"] = records / max(syncs, 1)
		out.layer["alloc.objects_per_request"] = float64(rc.allocObjects) / float64(len(reqs))
	}

	// Closed loop: trConns workers send back to back.
	var walls []float64
	deadline := time.Now().Add(time.Duration(phaseSecs * float64(time.Second)))
	for len(walls) < 3 || time.Now().Before(deadline) {
		var next atomic.Int64
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < trConns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for i := int(next.Add(1) - 1); i < len(burst); i = int(next.Add(1) - 1) {
					c.check(burst[i], i, c.do(burst[i], -1, &buf))
				}
			}()
		}
		wg.Wait()
		walls = append(walls, time.Since(t0).Seconds())
		for _, r := range burst {
			if r.kind == kindIngest {
				writes++
			}
		}
	}
	out.e2e["wall_s"] = median(walls)
	out.e2e["saturation_per_s"] = trBurst / median(walls)
	out.attempted = int64(len(reqs) + len(walls)*len(burst))
	out.failed = c.failed.Load()
	if c.err != nil {
		return out, c.err
	}
	return out, checkTrackerState(rig, sizes, writes)
}

// checkTrackerState is the end-of-run gate: every shard kept its size
// (ingests only edit existing issues) and the service counted exactly
// the ingests that were sent.
func checkTrackerState(rig *trackerRig, sizes map[*trackerd.Shard]int, writes int) error {
	var ingested uint64
	for _, sh := range rig.svc.Shards() {
		if got := sh.DS.Len(); got != sizes[sh] {
			return fmt.Errorf("tracker: shard %s/%s holds %d issues, want %d", sh.Tenant, sh.Project, got, sizes[sh])
		}
		ingested += rig.svc.Metrics().Counter("ingest." + sh.Tenant + "." + sh.Project + ".issues").Value()
	}
	if ingested != uint64(writes) {
		return fmt.Errorf("tracker: service counted %d ingests, %d were sent", ingested, writes)
	}
	return nil
}

func addCommits(a, b durable.CommitStats) durable.CommitStats {
	return durable.CommitStats{Batches: a.Batches + b.Batches, Records: a.Records + b.Records, Syncs: a.Syncs + b.Syncs}
}

func kindName(k int) string {
	return [...]string{"search", "list", "get", "ingest"}[k]
}
