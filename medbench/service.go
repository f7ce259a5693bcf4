package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/tenant"
	"repro/medshield"
)

// The service workload runs medshield-server's handler in-process on
// loopback, configured as in production: tenants with bearer tokens, a
// file-backed job store and recipient registry, and an audit log. Two
// closed-loop clients, one per tenant, each repeat a fixed number of
// iterations of: submit a protect job and poll it to the end, detect
// synchronously, fingerprint for new recipients.
const (
	svcClients  = 2
	pollEvery   = 5 * time.Millisecond
	opJob       = "protect_job"
	opDetect    = "detect"
	opFinger    = "fingerprint"
	svcShutdown = 30 * time.Second
	// detectsPerIter makes detects two thirds of the operations, so the
	// median falls inside their narrow latency band. With one detect per
	// iteration it fell where fingerprints and the early, still-cheap
	// jobs overlap, and moved by half its value between runs.
	detectsPerIter = 4
	// svcEta is η of every service request: one tuple in ten carries
	// mark bits, enough for detection to match reliably on the
	// 1000-row tables (η = 75 misses the mark on most seeds there).
	svcEta = 10
	// svcStrategy is the binning search the service requests ask for.
	// On 1000-row tables the default picks the exhaustive search, whose
	// candidate count, and so the cost of every protect and fingerprint,
	// varies tenfold with the seed; greedy costs about 10 ms on every
	// seed, which leaves the HTTP, job and store layers in front.
	svcStrategy = "greedy"
)

// timedStore wraps the job store and times every Put.
type timedStore struct {
	jobs.Store
	mu   sync.Mutex
	puts int
	busy time.Duration
}

func (s *timedStore) Put(j jobs.Job) error {
	start := time.Now()
	err := s.Store.Put(j)
	d := time.Since(start)
	s.mu.Lock()
	s.puts++
	s.busy += d
	s.mu.Unlock()
	return err
}

// timedWriter wraps the audit log and times every write.
type timedWriter struct {
	w      io.Writer
	mu     sync.Mutex
	writes int
	busy   time.Duration
}

func (w *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.w.Write(p)
	d := time.Since(start)
	w.mu.Lock()
	w.writes++
	w.busy += d
	w.mu.Unlock()
	return n, err
}

// serviceEnv is one running server with its stores and the request
// bodies its clients send.
type serviceEnv struct {
	dir       string
	svc       *server.Server
	hs        *http.Server
	served    chan error
	url       string
	tokens    []string
	auditFile *os.File
	reg       *registry.Store
	store     *timedStore  // traced runs only
	auditW    *timedWriter // traced runs only

	protectBody, detectBody []byte
	table                   api.Table
	rows                    int
}

// startService builds the stores, preloads the registry, starts the
// server and prepares the request bodies.
func startService(cfg config, traced bool) (_ *serviceEnv, err error) {
	dir, err := os.MkdirTemp(cfg.workDir, "service-")
	if err != nil {
		return nil, err
	}
	env := &serviceEnv{dir: dir}
	defer func() {
		if err != nil {
			env.stop()
		}
	}()

	tenants, err := tenant.Open(filepath.Join(dir, "tenants.json"))
	if err != nil {
		return nil, err
	}
	// Quotas far above what the clients use: the limiters run, nothing
	// is throttled.
	quota := tenant.Quota{RequestsPerMinute: 1_000_000, Burst: 100_000, MaxRowsPerRequest: 1_000_000, MaxActiveJobs: 1000}
	for c := 0; c < svcClients; c++ {
		token, hash := tenant.NewToken()
		if err := tenants.Put(tenant.Record{ID: fmt.Sprintf("client-%d", c), Role: tenant.RoleMember, TokenSHA256: hash, Quota: quota}); err != nil {
			return nil, err
		}
		env.tokens = append(env.tokens, token)
	}

	strategy, err := api.ParseStrategy(svcStrategy)
	if err != nil {
		return nil, err
	}
	fw, err := newFramework(0, medshield.WithStrategy(strategy))
	if err != nil {
		return nil, err
	}
	tbl, err := generate(cfg.size.svcRows, cfg.seed)
	if err != nil {
		return nil, err
	}
	key := medshield.NewKey(ownerSecret, svcEta)
	prot, err := fw.Protect(tbl, key)
	if err != nil {
		return nil, err
	}

	if env.reg, err = registry.Open(filepath.Join(dir, "registry.json")); err != nil {
		return nil, err
	}
	recs := make([]registry.Record, cfg.size.svcPreload)
	for i := range recs {
		id := fmt.Sprintf("preloaded-%05d", i)
		rp, err := core.RecipientPlan(&prot.Plan, id)
		if err != nil {
			return nil, err
		}
		recs[i] = registry.RecordOf(id, medshield.RecipientKey(ownerSecret, id, svcEta), *rp)
		recs[i].TenantID = fmt.Sprintf("client-%d", i%svcClients)
	}
	if err := env.reg.PutAll(recs); err != nil {
		return nil, err
	}

	fileStore, err := jobs.Open(filepath.Join(dir, "jobs.json"))
	if err != nil {
		return nil, err
	}
	var store jobs.Store = fileStore
	if env.auditFile, err = os.OpenFile(filepath.Join(dir, "audit.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o600); err != nil {
		return nil, err
	}
	var auditOut io.Writer = env.auditFile
	if traced {
		env.store = &timedStore{Store: fileStore}
		store = env.store
		env.auditW = &timedWriter{w: env.auditFile}
		auditOut = env.auditW
	}
	env.svc, err = server.New(server.Config{
		Defaults:        core.Config{K: 20, AutoEpsilon: true},
		Registry:        env.reg,
		Jobs:            jobs.Config{Store: store},
		Access:          slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Tenants:         tenants,
		Audit:           audit.NewLogger(auditOut),
		IPRatePerMinute: 1_000_000,
		IPBurst:         100_000,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.url = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: env.svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	env.served = make(chan error, 1)
	go func() { env.served <- env.hs.Serve(ln) }()

	env.rows = tbl.NumRows()
	if env.table, err = api.EncodeTable(tbl, api.OutputCSV); err != nil {
		return nil, err
	}
	if env.protectBody, err = json.Marshal(api.ProtectRequest{
		Table: env.table, Key: api.Key{Secret: ownerSecret, Eta: svcEta}, Output: api.OutputCSV,
		Options: &api.Options{Strategy: svcStrategy},
	}); err != nil {
		return nil, err
	}
	marked, err := api.EncodeTable(prot.Table, api.OutputCSV)
	if err != nil {
		return nil, err
	}
	prov := prot.Provenance
	if cfg.corrupt {
		// A wrong mark on record: detection must stop matching.
		flipped := []byte(prov.Mark)
		for i := range flipped {
			flipped[i] ^= '0' ^ '1'
		}
		prov.Mark = string(flipped)
	}
	if env.detectBody, err = json.Marshal(api.DetectRequest{
		Table: marked, Provenance: prov, Key: api.Key{Secret: ownerSecret, Eta: svcEta},
	}); err != nil {
		return nil, err
	}
	return env, nil
}

// stop shuts the server down, waits for it and removes its files.
func (env *serviceEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), svcShutdown)
	defer cancel()
	if env.svc != nil {
		env.svc.Drain()
	}
	if env.hs != nil {
		_ = env.hs.Shutdown(ctx) // the benchmark is done with the server either way
		<-env.served
	}
	if env.svc != nil {
		_ = env.svc.Close(ctx)
	}
	if env.auditFile != nil {
		env.auditFile.Close()
	}
	os.RemoveAll(env.dir)
}

// sample is one client operation.
type sample struct {
	op  string
	dur float64 // seconds
	err error
}

// clientLog is what one client recorded.
type clientLog struct {
	samples []sample
	polls   []float64 // seconds per poll request
	jobs    []jobs.Snapshot
}

// client is one closed-loop caller with its own tenant token.
type client struct {
	id    int
	env   *serviceEnv
	hc    *http.Client
	token string
	log   clientLog
}

// call sends one request and decodes a 2xx JSON answer into out.
func (c *client) call(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.env.url+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	return json.Unmarshal(data, out)
}

// protectJob submits a protect job and polls it until it ends.
func (c *client) protectJob() error {
	var jr api.JobResponse
	if err := c.call(http.MethodPost, "/v1/jobs/protect", c.env.protectBody, &jr); err != nil {
		return err
	}
	for !jr.Job.State.Terminal() {
		time.Sleep(pollEvery)
		start := time.Now()
		err := c.call(http.MethodGet, "/v1/jobs/"+jr.Job.ID, nil, &jr)
		c.log.polls = append(c.log.polls, since(start))
		if err != nil {
			return err
		}
	}
	c.log.jobs = append(c.log.jobs, jr.Job)
	if jr.Job.State != jobs.StateSucceeded {
		return fmt.Errorf("job %s ended %s: %s", jr.Job.ID, jr.Job.State, jr.Job.Error)
	}
	var res api.ProtectResponse
	if err := json.Unmarshal(jr.Result, &res); err != nil {
		return fmt.Errorf("job %s result: %w", jr.Job.ID, err)
	}
	if res.Stats.Rows != c.env.rows {
		return fmt.Errorf("job %s protected %d rows, want %d", jr.Job.ID, res.Stats.Rows, c.env.rows)
	}
	return nil
}

func (c *client) detect() error {
	var dr api.DetectResponse
	if err := c.call(http.MethodPost, "/v1/detect", c.env.detectBody, &dr); err != nil {
		return err
	}
	if !dr.Match {
		return fmt.Errorf("detect did not match (mark loss %.3f)", dr.MarkLoss)
	}
	return nil
}

func (c *client) fingerprint(iter, recipients int) error {
	req := api.FingerprintRequest{
		Table: c.env.table, Secret: ownerSecret, Eta: svcEta, Output: api.OutputCSV,
		Options: &api.Options{Strategy: svcStrategy},
	}
	for r := 0; r < recipients; r++ {
		req.Recipients = append(req.Recipients, api.RecipientRef{ID: fmt.Sprintf("c%d-i%05d-r%d", c.id, iter, r)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var fr api.FingerprintResponse
	if err := c.call(http.MethodPost, "/v1/fingerprint", body, &fr); err != nil {
		return err
	}
	if len(fr.Recipients) != recipients {
		return fmt.Errorf("fingerprint returned %d copies, want %d", len(fr.Recipients), recipients)
	}
	return nil
}

// run performs the client's iterations.
func (c *client) run(iters, recipients int) {
	timed := func(op string, fn func() error) {
		start := time.Now()
		err := fn()
		c.log.samples = append(c.log.samples, sample{op: op, dur: since(start), err: err})
	}
	for i := 0; i < iters; i++ {
		timed(opJob, c.protectJob)
		for d := 0; d < detectsPerIter; d++ {
			timed(opDetect, c.detect)
		}
		timed(opFinger, func() error { return c.fingerprint(i, recipients) })
	}
}

// servicePass is the outcome of one pass of the clients.
type servicePass struct {
	logs     []clientLog
	wall     float64
	peakHeap uint64
}

func (p *servicePass) samples() []sample {
	var out []sample
	for _, l := range p.logs {
		out = append(out, l.samples...)
	}
	return out
}

// opsPerSecond counts the operations that succeeded per wall second.
func (p *servicePass) opsPerSecond() float64 {
	ok := 0
	for _, s := range p.samples() {
		if s.err == nil {
			ok++
		}
	}
	return float64(ok) / p.wall
}

// drive runs the clients against env to the end.
func drive(cfg config, env *serviceEnv) *servicePass {
	transport := &http.Transport{MaxConnsPerHost: svcClients, MaxIdleConnsPerHost: svcClients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	clients := make([]*client, svcClients)
	for i := range clients {
		clients[i] = &client{id: i, env: env, hc: &http.Client{Transport: transport}, token: env.tokens[i]}
	}
	runtime.GC()
	hs := startHeapSampler()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(cfg.size.svcIters, cfg.size.svcRecipients)
		}()
	}
	wg.Wait()
	pass := &servicePass{wall: since(start), peakHeap: hs.stop()}
	for _, c := range clients {
		pass.logs = append(pass.logs, c.log)
	}
	return pass
}

// account adds a pass's operations to the report.
func account(rep *report, pass *servicePass) {
	for _, s := range pass.samples() {
		rep.attempted++
		if s.err != nil {
			rep.fail("%s: %v", s.op, s.err)
		}
	}
}

func runService(ctx context.Context, cfg config) (*report, error) {
	rep := &report{}
	if !cfg.trace {
		// One pass of the clients per set-up, each on fresh stores. The
		// latencies pool the passes; throughput and heap are the medians
		// of the passes, which damps a pass that hit a slow stretch.
		var setups, ops, heap, lat []float64
		for p := 0; p < cfg.size.setupReps; p++ {
			runtime.GC()
			start := time.Now()
			env, err := startService(cfg, false)
			if err != nil {
				return nil, err
			}
			setups = append(setups, since(start))
			pass := drive(cfg, env)
			env.stop()
			account(rep, pass)
			for _, s := range pass.samples() {
				lat = append(lat, s.dur)
			}
			ops = append(ops, pass.opsPerSecond())
			heap = append(heap, float64(pass.peakHeap)/mib)
		}
		rep.samples = len(lat)
		rep.set("rows_per_s", median(ops)*float64(cfg.size.svcRows), "rows/s")
		rep.set("ops_per_s", median(ops), "ops/s")
		rep.set("latency_p50_ms", median(lat)*1000, "ms")
		rep.set("latency_p95_ms", quantile(lat, 0.95)*1000, "ms")
		rep.set("peak_heap_mib", median(heap), "MiB")
		rep.set("setup_s", median(setups), "s")
		return rep, nil
	}

	// Traced run: one untraced pass, then one pass with the job store
	// and the audit log wrapped, each on fresh stores.
	passWith := func(traced bool) (*servicePass, *serviceEnv, gcState, gcState, error) {
		env, err := startService(cfg, traced)
		if err != nil {
			return nil, nil, gcState{}, gcState{}, err
		}
		gc0 := readGC()
		pass := drive(cfg, env)
		gc1 := readGC()
		account(rep, pass)
		return pass, env, gc0, gc1, nil
	}
	plain, env, _, _, err := passWith(false)
	if err != nil {
		return nil, err
	}
	env.stop()
	traced, env, gc0, gc1, err := passWith(true)
	if err != nil {
		return nil, err
	}
	// Read the store sizes before stop removes them.
	jobsMiB, errJ := fileMiB(filepath.Join(env.dir, "jobs.json"))
	regMiB, errR := fileMiB(filepath.Join(env.dir, "registry.json"))
	records := env.reg.Len()
	env.stop()
	if err := errors.Join(errJ, errR); err != nil {
		return nil, err
	}
	if rep.failed > 0 {
		return rep, nil
	}

	setPerLayerDefaults(rep)
	byOp := make(map[string][]float64)
	for _, s := range traced.samples() {
		byOp[s.op] = append(byOp[s.op], s.dur)
	}
	var polls, wait, run []float64
	retries := 0
	for _, l := range traced.logs {
		polls = append(polls, l.polls...)
		for _, j := range l.jobs {
			wait = append(wait, j.StartedAt.Sub(j.CreatedAt).Seconds())
			run = append(run, j.FinishedAt.Sub(j.StartedAt).Seconds())
			retries += j.Attempts - 1
		}
	}
	rep.set("server.protect_job_ms", median(byOp[opJob])*1000, "ms")
	rep.set("server.detect_ms", median(byOp[opDetect])*1000, "ms")
	rep.set("server.fingerprint_ms", median(byOp[opFinger])*1000, "ms")
	rep.set("server.poll_ms", median(polls)*1000, "ms")
	rep.set("jobs.queue_wait_ms", median(wait)*1000, "ms")
	rep.set("jobs.run_ms", median(run)*1000, "ms")
	rep.set("jobs.retries", float64(retries), "count")
	rep.set("jobs.store_put_ms", env.store.busy.Seconds()*1000/float64(max(env.store.puts, 1)), "ms")
	rep.set("jobs.store_puts", float64(env.store.puts), "count")
	rep.set("jobs.store_mib", jobsMiB, "MiB")
	rep.set("registry.file_mib", regMiB, "MiB")
	rep.set("registry.records", float64(records), "count")
	rep.set("audit.write_s", env.auditW.busy.Seconds(), "s")
	rep.set("audit.records", float64(env.auditW.writes), "count")
	setRuntime(rep, gc0, gc1)
	rep.set("trace.overhead", traced.opsPerSecond()/plain.opsPerSecond(), "ratio")
	rep.samples = len(plain.samples()) + len(traced.samples())
	return rep, nil
}

func fileMiB(path string) (float64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(st.Size()) / mib, nil
}
