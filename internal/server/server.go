// Package server is the HTTP service layer over the protection
// pipeline: request-scoped handlers for POST /v1/protect, /v1/plan,
// /v1/apply, /v1/append, /v1/detect and /v1/dispute plus GET
// /v1/healthz, speaking the internal/api wire contract. The plan/append
// pair turns the service into an incremental-ingestion endpoint:
// protect once, retain the returned plan, and POST each nightly batch
// to /v1/append (409 plan_drift asks for a re-plan). /v1/plan,
// /v1/apply and /v1/append also speak a text/csv streaming mode (see
// stream.go): the CSV body is consumed segment-at-a-time under
// per-segment byte accounting, so million-row tables pass through in
// bounded memory — the plan mode returns its computed plan in response
// trailers, the apply/append modes stream back protected CSV. The read
// side speaks the same mode: a text/csv /v1/detect or /v1/traceback
// consumes the suspect CSV segment-at-a-time and returns its verdict
// document in the api.ResultTrailer.
// Every request runs under a per-request deadline and inside
// a bounded in-flight semaphore sized off the worker configuration, so
// a burst of heavy protect calls queues instead of oversubscribing the
// machine; cancellation (client disconnect, deadline) propagates through
// the whole pipeline via context and aborts promptly.
//
// The package is cmd-agnostic: cmd/medshield-server wires flags, the
// listener and graceful shutdown around Handler(); tests drive the same
// handler through httptest.
package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/audit"
	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/dht"
	"repro/internal/jobs"
	"repro/internal/ontology"
	"repro/internal/ownership"
	"repro/internal/pool"
	"repro/internal/ratelimit"
	"repro/internal/registry"
	"repro/internal/relation"
	"repro/internal/sse"
	"repro/internal/tenant"
	"repro/internal/watermark"
)

// Config parameterizes the service.
type Config struct {
	// Trees are the domain hierarchy trees served; nil selects the
	// builtin medical ontologies.
	Trees map[string]*dht.Tree
	// Defaults is the server-level pipeline configuration; per-request
	// api.Options overlay it. Zero K defaults to 20 with AutoEpsilon.
	Defaults core.Config
	// RequestTimeout is the per-request deadline (default 60s).
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently served pipeline requests. 0 sizes
	// it off the effective worker count: one fanned-out pipeline run
	// already saturates the cores, so a small multiple of 1 is enough to
	// keep the machine busy while bounding memory.
	MaxInflight int
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// MaxFingerprintRecipients bounds one /v1/fingerprint request: each
	// recipient costs a marked copy of the table in the response, so the
	// count is a memory-amplification lever. 0 selects the default (128);
	// fleets larger than the cap should fingerprint in batches.
	MaxFingerprintRecipients int
	// Registry is the recipient registry behind /v1/fingerprint,
	// /v1/recipients and /v1/traceback; nil selects an in-memory store
	// (records then live for the process only).
	Registry *registry.Store
	// Jobs tunes the async job layer behind /v1/jobs: Store (nil
	// selects in-memory — jobs then die with the process), Workers,
	// MaxAttempts, AttemptTimeout, Backoff and webhook delivery. The
	// Runner, Kinds, Hub and ClassifyError fields are owned by the
	// server and overwritten.
	Jobs jobs.Config
	// Logger receives the job layer's lines; nil disables them.
	Logger *log.Logger
	// Access receives one structured line per served request (request
	// ID, tenant, route, status, duration); nil disables access logs.
	Access *slog.Logger
	// Tenants enables bearer authentication and per-tenant isolation:
	// every request must present a token from this store. nil runs the
	// server open — every request executes as the built-in "default"
	// admin tenant with no quotas (the single-operator deployment).
	Tenants *tenant.Store
	// Audit receives one append-only JSONL record per mutating request;
	// nil disables auditing.
	Audit *audit.Logger
	// IPRatePerMinute/IPBurst bound pre-authentication requests per
	// remote IP — the token-guessing throttle. 0 disables the limiter.
	IPRatePerMinute int
	IPBurst         int
}

// Server implements the handlers.
type Server struct {
	cfg           Config
	sem           chan struct{}
	hub           *sse.Hub
	jobs          *jobs.Manager
	log           *slog.Logger
	metrics       *serverMetrics
	tenantLimiter *ratelimit.Limiter
	ipLimiter     *ratelimit.Limiter
}

// New validates the configuration eagerly — an invalid Defaults fails
// here, not on the first request — and returns the service.
func New(cfg Config) (*Server, error) {
	if cfg.Trees == nil {
		cfg.Trees = ontology.Trees()
	}
	if cfg.Defaults.K == 0 {
		cfg.Defaults.K = 20
		cfg.Defaults.AutoEpsilon = true
	}
	// Probe the defaults through the real constructor so misconfiguration
	// surfaces at startup.
	fw, err := core.New(cfg.Trees, cfg.Defaults)
	if err != nil {
		return nil, fmt.Errorf("server: invalid defaults: %w", err)
	}
	cfg.Defaults = fw.Config()
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.MaxInflight <= 0 {
		// One pipeline run fans out over Workers cores; two in flight
		// keep the machine busy while one drains, without unbounded
		// memory growth under a burst.
		cfg.MaxInflight = 2
		if cfg.Defaults.Workers == 1 {
			// Sequential runs leave cores idle; admit one per core.
			cfg.MaxInflight = pool.Resolve(0)
		}
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.MaxFingerprintRecipients <= 0 {
		cfg.MaxFingerprintRecipients = 128
	}
	if cfg.Registry == nil {
		cfg.Registry = registry.New()
	}
	s := &Server{cfg: cfg, sem: make(chan struct{}, cfg.MaxInflight), hub: sse.NewHub()}
	jc := cfg.Jobs
	jc.Runner = jobRunner{s: s}
	jc.Kinds = jobKinds
	jc.Hub = s.hub
	jc.ClassifyError = func(err error) string {
		code, _ := s.classify(err)
		return code
	}
	if jc.Store == nil {
		jc.Store = jobs.NewStore()
	}
	if jc.Logger == nil {
		jc.Logger = cfg.Logger
	}
	mgr, err := jobs.New(jc)
	if err != nil {
		return nil, err
	}
	s.jobs = mgr
	s.log = cfg.Access
	s.metrics = newServerMetrics(func() map[string]int64 {
		out := make(map[string]int64)
		for _, j := range s.jobs.List(jobs.Filter{}) {
			out[string(j.State)]++
		}
		return out
	})
	s.tenantLimiter = ratelimit.New(0, nil)
	if cfg.IPRatePerMinute > 0 {
		if s.cfg.IPBurst <= 0 {
			s.cfg.IPBurst = max(1, cfg.IPRatePerMinute/6)
		}
		s.ipLimiter = ratelimit.New(0, nil)
	}
	return s, nil
}

// Drain stops job intake: /readyz turns 503 and new submissions are
// refused while running jobs finish. The first stage of a graceful
// shutdown.
func (s *Server) Drain() { s.jobs.Drain() }

// Close shuts the async layer down: running jobs are cancelled with the
// drain cause (they go back to queued on disk and resume on the next
// boot), the job store is flushed, and the event hub closes every
// stream. ctx bounds the wait.
func (s *Server) Close(ctx context.Context) error {
	err := s.jobs.Close(ctx)
	s.hub.Close()
	return err
}

// Handler returns the route mux. Every route runs inside the tenant
// plane (see plane.go); probes and /metrics are open, mutating routes
// are audited.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	probe := planeOpts{open: true}
	read := planeOpts{}
	mutate := planeOpts{audit: true}
	// Probes and job control run outside the in-flight semaphore: a
	// saturated pipeline pool must fail neither health checks nor job
	// submission/polling.
	mux.HandleFunc("GET /v1/healthz", s.plane("/v1/healthz", probe, s.handleHealthz))
	mux.HandleFunc("GET /healthz", s.plane("/healthz", probe, s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.plane("/readyz", probe, s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.plane("/metrics", probe, s.handleMetrics))
	mux.HandleFunc("POST /v1/jobs/{kind}", s.plane("/v1/jobs/{kind}", mutate, s.control(s.handleJobSubmit)))
	mux.HandleFunc("GET /v1/jobs", s.plane("/v1/jobs", read, s.control(s.handleJobList)))
	mux.HandleFunc("GET /v1/jobs/{id}", s.plane("/v1/jobs/{id}", read, s.control(s.handleJobGet)))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.plane("/v1/jobs/{id}", mutate, s.control(s.handleJobCancel)))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.plane("/v1/jobs/{id}/events", read, s.handleJobEvents))
	mux.HandleFunc("POST /v1/protect", s.plane("/v1/protect", mutate, s.pipeline(s.handleProtect)))
	mux.HandleFunc("POST /v1/plan", s.plane("/v1/plan", mutate, s.streamPipeline(s.handlePlan)))
	mux.HandleFunc("POST /v1/apply", s.plane("/v1/apply", mutate, s.streamPipeline(s.handleApply)))
	mux.HandleFunc("POST /v1/append", s.plane("/v1/append", mutate, s.streamPipeline(s.handleAppend)))
	mux.HandleFunc("POST /v1/detect", s.plane("/v1/detect", mutate, s.streamPipeline(s.handleDetect)))
	mux.HandleFunc("POST /v1/dispute", s.plane("/v1/dispute", mutate, s.pipeline(s.handleDispute)))
	mux.HandleFunc("POST /v1/fingerprint", s.plane("/v1/fingerprint", mutate, s.pipeline(s.handleFingerprint)))
	mux.HandleFunc("POST /v1/traceback", s.plane("/v1/traceback", mutate, s.streamPipeline(s.handleTraceback)))
	mux.HandleFunc("GET /v1/recipients", s.plane("/v1/recipients", read, s.pipeline(s.handleRecipientsList)))
	mux.HandleFunc("POST /v1/recipients", s.plane("/v1/recipients", mutate, s.pipeline(s.handleRecipientImport)))
	mux.HandleFunc("GET /v1/recipients/{id}", s.plane("/v1/recipients/{id}", read, s.pipeline(s.handleRecipientGet)))
	mux.HandleFunc("DELETE /v1/recipients/{id}", s.plane("/v1/recipients/{id}", mutate, s.pipeline(s.handleRecipientDelete)))
	return mux
}

// pipeline wraps a handler with the service envelope: body size cap,
// per-request deadline, the bounded in-flight semaphore, and request
// logging. Handlers return (status, error) and write nothing on error —
// the wrapper owns the error envelope.
func (s *Server) pipeline(h func(w http.ResponseWriter, r *http.Request) (int, error)) http.HandlerFunc {
	return s.envelope(h, false)
}

// streamPipeline is the envelope of the endpoints with a text/csv
// streaming mode (/v1/plan, /v1/apply, /v1/append, /v1/detect,
// /v1/traceback): identical except that a CSV
// body skips the whole-body MaxBytesReader — the stream is metered per
// segment instead (meteredSegments), so tables larger than MaxBodyBytes
// pass while peak buffering stays bounded by it. JSON bodies on the
// same routes keep the whole-body cap.
func (s *Server) streamPipeline(h func(w http.ResponseWriter, r *http.Request) (int, error)) http.HandlerFunc {
	return s.envelope(h, true)
}

func (s *Server) envelope(h func(w http.ResponseWriter, r *http.Request) (int, error), streaming bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		if !(streaming && isCSVRequest(r)) {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}

		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			if _, err := h(w, r); err != nil {
				s.writeError(w, err)
			}
		case <-ctx.Done():
			// Deadline spent waiting for a slot means the server is
			// saturated, not that the pipeline was slow — report
			// overloaded (503) so clients and load balancers shed/retry.
			// A client that walked away keeps the cancellation code.
			err := fmt.Errorf("server: waiting for capacity: %w", ctx.Err())
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				err = overloadedError{err: err}
			}
			s.writeError(w, err)
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.HealthResponse{
		Status:   "ok",
		Version:  api.Version,
		Workers:  pool.Resolve(s.cfg.Defaults.Workers),
		Inflight: len(s.sem),
		Capacity: cap(s.sem),
	})
}

func (s *Server) handleProtect(w http.ResponseWriter, r *http.Request) (int, error) {
	var req api.ProtectRequest
	if err := api.DecodeJSON(r.Body, &req); err != nil {
		return 0, badRequest(err)
	}
	resp, err := s.runProtect(r.Context(), req)
	if err != nil {
		return 0, err
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// runProtect is the transport-free core of POST /v1/protect, shared by
// the synchronous handler and the async job runner so both produce
// byte-identical response documents.
func (s *Server) runProtect(ctx context.Context, req api.ProtectRequest) (api.ProtectResponse, error) {
	var zero api.ProtectResponse
	switch req.Output {
	case "", api.OutputRows, api.OutputCSV:
	default:
		// Reject before the pipeline runs; EncodeTable would catch it
		// only after a full (wasted) protect pass.
		return zero, badRequest(fmt.Errorf("unknown output format %q (want %q or %q)", req.Output, api.OutputRows, api.OutputCSV))
	}
	fw, tbl, key, err := s.prepare(ctx, req.Table, req.Key, req.Options)
	if err != nil {
		return zero, err
	}
	prot, err := fw.ProtectContext(ctx, tbl, key)
	if err != nil {
		return zero, err
	}
	outTbl, err := api.EncodeTable(prot.Table, req.Output)
	if err != nil {
		return zero, badRequest(err)
	}
	return api.ProtectResponse{
		Version:    api.Version,
		Table:      outTbl,
		Provenance: prot.Provenance,
		Plan:       prot.Plan,
		Stats: api.ProtectStats{
			Rows:           prot.Table.NumRows(),
			TuplesSelected: prot.Embed.TuplesSelected,
			BitsEmbedded:   prot.Embed.BitsEmbedded,
			CellsChanged:   prot.Embed.CellsChanged,
			EffectiveK:     prot.Binning.EffectiveK,
			Epsilon:        prot.Provenance.Epsilon,
			AvgLoss:        prot.Binning.AvgLoss,
		},
	}, nil
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) (int, error) {
	if isCSVRequest(r) {
		return s.handlePlanCSV(w, r)
	}
	var req api.PlanRequest
	if err := api.DecodeJSON(r.Body, &req); err != nil {
		return 0, badRequest(err)
	}
	resp, err := s.runPlan(r.Context(), req)
	if err != nil {
		return 0, err
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// runPlan is the transport-free core of POST /v1/plan's JSON mode,
// shared by the synchronous handler and the async "plan" job runner. A
// CSV-sourced table streams through the sketch planner segment by
// segment (core.PlanStream) instead of materializing; an inline row
// payload takes the warm in-memory path. Both produce the identical
// plan.
func (s *Server) runPlan(ctx context.Context, req api.PlanRequest) (api.PlanResponse, error) {
	var zero api.PlanResponse
	if req.Table.CSV != "" && len(req.Table.Rows) == 0 {
		fw, err := s.frameworkFor(req.Options)
		if err != nil {
			return zero, err
		}
		if req.Key.Secret == "" || req.Key.Eta == 0 {
			return zero, badRequest(fmt.Errorf("key needs a non-empty secret and eta >= 1"))
		}
		schema, err := api.SchemaOf(req.Table.Columns)
		if err != nil {
			return zero, badRequest(err)
		}
		sr, err := relation.NewSegmentReader(strings.NewReader(req.Table.CSV), schema, fw.Config().Chunk)
		if err != nil {
			return zero, badRequest(err)
		}
		ps, err := fw.PlanStream(ctx, &quotaSegments{ctx: ctx, src: sr}, crypt.NewWatermarkKeyFromSecret(req.Key.Secret, req.Key.Eta))
		if err != nil {
			return zero, err
		}
		return api.PlanResponse{
			Version: api.Version,
			Plan:    *ps.Plan,
			Stats: api.PlanStats{
				Rows:       ps.Rows,
				K:          ps.Plan.K,
				Epsilon:    ps.Plan.Epsilon,
				EffectiveK: ps.Plan.EffectiveK,
				AvgLoss:    ps.Plan.AvgLoss,
			},
		}, nil
	}
	fw, tbl, key, err := s.prepare(ctx, req.Table, req.Key, req.Options)
	if err != nil {
		return zero, err
	}
	plan, err := fw.PlanContext(ctx, tbl, key)
	if err != nil {
		return zero, err
	}
	return api.PlanResponse{
		Version: api.Version,
		Plan:    *plan,
		Stats: api.PlanStats{
			Rows:       tbl.NumRows(),
			K:          plan.K,
			Epsilon:    plan.Epsilon,
			EffectiveK: plan.EffectiveK,
			AvgLoss:    plan.AvgLoss,
		},
	}, nil
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) (int, error) {
	if isCSVRequest(r) {
		return s.handleAppendCSV(w, r)
	}
	var req api.AppendRequest
	if err := api.DecodeJSON(r.Body, &req); err != nil {
		return 0, badRequest(err)
	}
	switch req.Output {
	case "", api.OutputRows, api.OutputCSV:
	default:
		return 0, badRequest(fmt.Errorf("unknown output format %q (want %q or %q)", req.Output, api.OutputRows, api.OutputCSV))
	}
	if req.Options == nil {
		req.Options = &api.Options{}
	}
	if req.Options.K == 0 {
		// The append runs under the plan's frozen K; the framework K
		// only has to satisfy validation.
		req.Options.K = max(req.Plan.K, 1)
	}
	fw, tbl, key, err := s.prepare(r.Context(), req.Table, req.Key, req.Options)
	if err != nil {
		return 0, err
	}
	app, err := fw.AppendContext(r.Context(), tbl, &req.Plan, key)
	if err != nil {
		return 0, err
	}
	outTbl, err := api.EncodeTable(app.Table, req.Output)
	if err != nil {
		return 0, badRequest(err)
	}
	writeJSON(w, http.StatusOK, api.AppendResponse{
		Version: api.Version,
		Table:   outTbl,
		Plan:    app.Plan,
		Stats: api.AppendStats{
			Rows:           app.Table.NumRows(),
			TotalRows:      app.Plan.Rows,
			TuplesSelected: app.Embed.TuplesSelected,
			BitsEmbedded:   app.Embed.BitsEmbedded,
			CellsChanged:   app.Embed.CellsChanged,
			NewBins:        app.NewBins,
			Suppressed:     app.Suppressed,
		},
	})
	return http.StatusOK, nil
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) (int, error) {
	if isCSVRequest(r) {
		return s.handleDetectCSV(w, r)
	}
	var req api.DetectRequest
	if err := api.DecodeJSON(r.Body, &req); err != nil {
		return 0, badRequest(err)
	}
	resp, err := s.runDetect(r.Context(), req)
	if err != nil {
		return 0, err
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// runDetect is the transport-free core of POST /v1/detect's JSON mode,
// shared by the synchronous handler and the async "detect" job runner.
// A CSV-sourced suspect streams through core.DetectStream segment by
// segment instead of materializing; an inline row payload is decoded
// to a table, which DetectContext runs through the same DetectStream as
// one segment, so the verdict is bit-identical by construction.
func (s *Server) runDetect(ctx context.Context, req api.DetectRequest) (api.DetectResponse, error) {
	var zero api.DetectResponse
	if req.Options == nil {
		req.Options = &api.Options{}
	}
	if req.Options.K == 0 {
		// Detection does not re-bin; K only has to satisfy validation.
		req.Options.K = max(req.Provenance.K, 1)
	}
	if req.Table.CSV != "" && len(req.Table.Rows) == 0 {
		fw, err := s.frameworkFor(req.Options)
		if err != nil {
			return zero, err
		}
		if req.Key.Secret == "" || req.Key.Eta == 0 {
			return zero, badRequest(fmt.Errorf("key needs a non-empty secret and eta >= 1"))
		}
		schema, err := api.SchemaOf(req.Table.Columns)
		if err != nil {
			return zero, badRequest(err)
		}
		sr, err := relation.NewSegmentReader(strings.NewReader(req.Table.CSV), schema, fw.Config().Chunk)
		if err != nil {
			return zero, badRequest(err)
		}
		det, err := fw.DetectStream(ctx, &quotaSegments{ctx: ctx, src: sr}, req.Provenance, crypt.NewWatermarkKeyFromSecret(req.Key.Secret, req.Key.Eta))
		if err != nil {
			return zero, err
		}
		return detectResponseOf(&det.Detection), nil
	}
	fw, tbl, key, err := s.prepare(ctx, req.Table, req.Key, req.Options)
	if err != nil {
		return zero, err
	}
	det, err := fw.DetectContext(ctx, tbl, req.Provenance, key)
	if err != nil {
		return zero, err
	}
	return detectResponseOf(det), nil
}

// detectResponseOf projects a detection verdict to its wire document.
func detectResponseOf(det *core.Detection) api.DetectResponse {
	return api.DetectResponse{
		Version:  api.Version,
		Match:    det.Match,
		MarkLoss: det.MarkLoss,
		Mark:     det.Result.Mark.String(),
		Stats: api.DetectStats{
			TuplesSelected: det.Result.Stats.TuplesSelected,
			VotesCast:      det.Result.Stats.VotesCast,
			BitsRead:       det.Result.Stats.BitsRead,
			SkippedCells:   det.Result.Stats.SkippedCells,
		},
	}
}

func (s *Server) handleDispute(w http.ResponseWriter, r *http.Request) (int, error) {
	var req api.DisputeRequest
	if err := api.DecodeJSON(r.Body, &req); err != nil {
		return 0, badRequest(err)
	}
	if req.Options == nil {
		req.Options = &api.Options{}
	}
	if req.Options.K == 0 {
		req.Options.K = max(req.Provenance.K, 1)
	}
	fw, tbl, ownerKey, err := s.prepare(r.Context(), req.Table, req.OwnerKey, req.Options)
	if err != nil {
		return 0, err
	}
	rivals := make([]ownership.Claim, 0, len(req.Rivals))
	for i, rc := range req.Rivals {
		if rc.Key.Secret == "" || rc.Key.Eta == 0 {
			return 0, badRequest(fmt.Errorf("rival %d: key needs a non-empty secret and eta >= 1", i))
		}
		mark, err := bitstr.FromString(rc.Mark)
		if err != nil {
			return 0, badRequest(fmt.Errorf("rival %d: mark: %w", i, err))
		}
		dup := rc.Duplication
		if dup == 0 {
			dup = max(req.Provenance.Duplication, 1)
		}
		rivalKey := crypt.NewWatermarkKeyFromSecret(rc.Key.Secret, rc.Key.Eta)
		rivals = append(rivals, ownership.Claim{
			Claimant: rc.Claimant,
			V:        rc.V,
			Key:      rivalKey,
			Params:   watermarkParams(fw, rivalKey, mark, dup, req.Provenance),
		})
	}
	verdicts, err := fw.DisputeContext(r.Context(), tbl, req.Provenance, ownerKey, rivals)
	if err != nil {
		return 0, err
	}
	out := make([]api.Verdict, len(verdicts))
	for i, v := range verdicts {
		out[i] = api.Verdict{
			Claimant:     v.Claimant,
			DecryptOK:    v.DecryptOK,
			StatisticOK:  v.StatisticOK,
			MarkDerived:  v.MarkDerived,
			MarkDetected: v.MarkDetected,
			MarkLoss:     v.MarkLoss,
			Valid:        v.Valid,
			Reason:       v.Reason,
		}
	}
	writeJSON(w, http.StatusOK, api.DisputeResponse{Version: api.Version, Verdicts: out})
	return http.StatusOK, nil
}

func (s *Server) handleFingerprint(w http.ResponseWriter, r *http.Request) (int, error) {
	var req api.FingerprintRequest
	if err := api.DecodeJSON(r.Body, &req); err != nil {
		return 0, badRequest(err)
	}
	resp, err := s.runFingerprint(r.Context(), req)
	if err != nil {
		return 0, err
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// runFingerprint is the transport-free core of POST /v1/fingerprint.
func (s *Server) runFingerprint(ctx context.Context, req api.FingerprintRequest) (api.FingerprintResponse, error) {
	var zero api.FingerprintResponse
	switch req.Output {
	case "", api.OutputRows, api.OutputCSV:
	default:
		return zero, badRequest(fmt.Errorf("unknown output format %q (want %q or %q)", req.Output, api.OutputRows, api.OutputCSV))
	}
	if req.Secret == "" || req.Eta == 0 {
		return zero, badRequest(fmt.Errorf("fingerprint needs a non-empty secret and eta >= 1"))
	}
	if len(req.Recipients) == 0 {
		return zero, badRequest(fmt.Errorf("fingerprint needs at least one recipient"))
	}
	if len(req.Recipients) > s.cfg.MaxFingerprintRecipients {
		// Each recipient costs a marked copy of the table in the response;
		// an uncapped count is a memory amplifier, not a use case.
		return zero, tooManyRecipients(fmt.Errorf("fingerprint accepts at most %d recipients per request, got %d", s.cfg.MaxFingerprintRecipients, len(req.Recipients)))
	}
	fw, err := s.frameworkFor(req.Options)
	if err != nil {
		return zero, err
	}
	tbl, err := api.DecodeTable(req.Table)
	if err != nil {
		return zero, badRequest(err)
	}
	if err := checkRowQuota(ctx, tbl.NumRows()); err != nil {
		return zero, err
	}
	recipients := make([]core.Recipient, len(req.Recipients))
	for i, ref := range req.Recipients {
		recipients[i] = core.Recipient{
			ID:  ref.ID,
			Key: crypt.RecipientWatermarkKey(req.Secret, ref.ID, req.Eta),
		}
	}
	if req.Output == api.OutputCSV {
		return s.runFingerprintCSV(ctx, fw, tbl, recipients)
	}
	results, err := fw.FingerprintContext(ctx, tbl, recipients)
	if err != nil {
		return zero, err
	}
	resp := api.FingerprintResponse{Version: api.Version, Recipients: make([]api.FingerprintRecipient, len(results))}
	records := make([]registry.Record, len(results))
	for i, res := range results {
		outTbl, err := api.EncodeTable(res.Protected.Table, req.Output)
		if err != nil {
			return zero, badRequest(err)
		}
		records[i] = registry.RecordOf(res.RecipientID, recipients[i].Key, res.Protected.Plan)
		records[i].TenantID = tenantIDFrom(ctx)
		records[i].CreatedAt = time.Now().UTC().Format(time.RFC3339)
		resp.Recipients[i] = api.FingerprintRecipient{
			ID:             res.RecipientID,
			KeyFingerprint: res.KeyFingerprint,
			Table:          outTbl,
			Provenance:     res.Protected.Provenance,
			TuplesSelected: res.Protected.Embed.TuplesSelected,
			BitsEmbedded:   res.Protected.Embed.BitsEmbedded,
			CellsChanged:   res.Protected.Embed.CellsChanged,
		}
	}
	// Atomic registration: either every recipient of this run lands in
	// the registry or none does — a mid-batch conflict must not leave a
	// prefix of records durably registered for copies the client never
	// received.
	if err := s.cfg.Registry.PutAll(records); err != nil {
		return zero, err
	}
	if len(results) > 0 {
		plan := results[0].Protected.Plan
		resp.Stats = api.PlanStats{
			Rows:       tbl.NumRows(),
			K:          plan.K,
			Epsilon:    plan.Epsilon,
			EffectiveK: plan.EffectiveK,
			AvgLoss:    plan.AvgLoss,
		}
	}
	return resp, nil
}

// runFingerprintCSV is the CSV-output arm of /v1/fingerprint: the N
// marked copies are produced by the shared-transform streaming fan-out
// (core.FingerprintStream) — one plan, one transform, one selection per
// recipient key, then per-segment embed+encode — so the peak resident
// table state is one segment per recipient, not N marked tables. The
// response document (and its registry side effect) is shaped exactly
// like the materialized arm's.
func (s *Server) runFingerprintCSV(ctx context.Context, fw *core.Framework, tbl *relation.Table, recipients []core.Recipient) (api.FingerprintResponse, error) {
	var zero api.FingerprintResponse
	schema := tbl.Schema()
	columns := make([]api.Column, schema.NumColumns())
	for i := 0; i < schema.NumColumns(); i++ {
		c := schema.Column(i)
		columns[i] = api.Column{Name: c.Name, Kind: c.Kind.String()}
	}
	outs := make([]io.Writer, len(recipients))
	bufs := make([]*strings.Builder, len(recipients))
	for i := range outs {
		bufs[i] = &strings.Builder{}
		outs[i] = bufs[i]
	}
	results, err := fw.FingerprintStream(ctx, tbl, recipients, outs)
	if err != nil {
		return zero, err
	}
	resp := api.FingerprintResponse{Version: api.Version, Recipients: make([]api.FingerprintRecipient, len(results))}
	records := make([]registry.Record, len(results))
	for i, res := range results {
		records[i] = registry.RecordOf(res.RecipientID, recipients[i].Key, res.Streamed.Plan)
		records[i].TenantID = tenantIDFrom(ctx)
		records[i].CreatedAt = time.Now().UTC().Format(time.RFC3339)
		resp.Recipients[i] = api.FingerprintRecipient{
			ID:             res.RecipientID,
			KeyFingerprint: res.KeyFingerprint,
			Table:          api.Table{Columns: columns, CSV: bufs[i].String()},
			Provenance:     res.Streamed.Plan.Provenance,
			TuplesSelected: res.Streamed.Embed.TuplesSelected,
			BitsEmbedded:   res.Streamed.Embed.BitsEmbedded,
			CellsChanged:   res.Streamed.Embed.CellsChanged,
		}
	}
	// Atomic registration, exactly as the materialized arm: either every
	// recipient of this run lands in the registry or none does.
	if err := s.cfg.Registry.PutAll(records); err != nil {
		return zero, err
	}
	if len(results) > 0 {
		plan := results[0].Streamed.Plan
		resp.Stats = api.PlanStats{
			Rows:       tbl.NumRows(),
			K:          plan.K,
			Epsilon:    plan.Epsilon,
			EffectiveK: plan.EffectiveK,
			AvgLoss:    plan.AvgLoss,
		}
	}
	return resp, nil
}

func (s *Server) handleTraceback(w http.ResponseWriter, r *http.Request) (int, error) {
	if isCSVRequest(r) {
		return s.handleTracebackCSV(w, r)
	}
	var req api.TracebackRequest
	if err := api.DecodeJSON(r.Body, &req); err != nil {
		return 0, badRequest(err)
	}
	resp, err := s.runTraceback(r.Context(), req)
	if err != nil {
		return 0, err
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// runTraceback is the transport-free core of POST /v1/traceback.
func (s *Server) runTraceback(ctx context.Context, req api.TracebackRequest) (api.TracebackResponse, error) {
	var zero api.TracebackResponse
	if req.Secret == "" {
		return zero, badRequest(fmt.Errorf("traceback needs the master secret"))
	}
	// Traceback only ever sees the calling tenant's registrations —
	// candidate sets never cross tenants.
	recs := s.cfg.Registry.ListIn(tenantIDFrom(ctx))
	if len(recs) == 0 {
		return zero, badRequest(fmt.Errorf("no recipients registered; run /v1/fingerprint or import records first"))
	}
	// Records the secret does not verify (foreign imports, stale
	// entries) are skipped and reported, not fatal; a secret verifying
	// nothing is a wrong secret (403).
	cands, skipped, err := registry.CandidatesFromSecret(recs, req.Secret)
	if err != nil {
		return zero, err // wraps core.ErrKeyMismatch -> 403
	}
	if req.Options == nil {
		req.Options = &api.Options{}
	}
	if req.Options.K == 0 {
		// Traceback does not re-bin; K only has to satisfy validation.
		req.Options.K = max(recs[0].Plan.K, 1)
	}
	fw, err := s.frameworkFor(req.Options)
	if err != nil {
		return zero, err
	}
	if req.Table.CSV != "" && len(req.Table.Rows) == 0 {
		// CSV-sourced suspects stream through core.TracebackStream segment
		// by segment. Inline rows go through TracebackContext, the same
		// TracebackStream over the table as one segment, so the verdicts
		// are bit-identical by construction.
		schema, err := api.SchemaOf(req.Table.Columns)
		if err != nil {
			return zero, badRequest(err)
		}
		sr, err := relation.NewSegmentReader(strings.NewReader(req.Table.CSV), schema, fw.Config().Chunk)
		if err != nil {
			return zero, badRequest(err)
		}
		tb, err := fw.TracebackStream(ctx, &quotaSegments{ctx: ctx, src: sr}, cands)
		if err != nil {
			return zero, err
		}
		return tracebackResponseOf(&tb.Traceback, skipped), nil
	}
	tbl, err := api.DecodeTable(req.Table)
	if err != nil {
		return zero, badRequest(err)
	}
	if err := checkRowQuota(ctx, tbl.NumRows()); err != nil {
		return zero, err
	}
	tb, err := fw.TracebackContext(ctx, tbl, cands)
	if err != nil {
		return zero, err
	}
	return tracebackResponseOf(tb, skipped), nil
}

// tracebackResponseOf projects a traceback verdict set to its wire
// document.
func tracebackResponseOf(tb *core.Traceback, skipped []string) api.TracebackResponse {
	resp := api.TracebackResponse{
		Version:  api.Version,
		Verdicts: make([]api.TracebackVerdict, len(tb.Verdicts)),
		Culprit:  tb.Culprit,
		Matches:  tb.Matches,
		Skipped:  skipped,
	}
	for i, v := range tb.Verdicts {
		resp.Verdicts[i] = api.TracebackVerdict{
			RecipientID: v.RecipientID,
			Mark:        v.Mark,
			MarkLoss:    v.MarkLoss,
			MatchRatio:  v.MatchRatio,
			Match:       v.Match,
			Confidence:  v.Confidence,
			VotesCast:   v.VotesCast,
		}
	}
	return resp
}

func (s *Server) handleRecipientsList(w http.ResponseWriter, r *http.Request) (int, error) {
	recs := s.cfg.Registry.ListIn(tenantIDFrom(r.Context()))
	resp := api.RecipientsResponse{Version: api.Version, Recipients: make([]api.RecipientSummary, len(recs))}
	for i, rec := range recs {
		resp.Recipients[i] = api.SummaryOf(rec)
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// verifyRecordSecret authorizes access to one registry record: the
// caller must present the owner's master secret (api.SecretHeader) and
// it must re-derive the record's registered key. The registry is
// server-held owner state — unlike the stateless pipeline endpoints,
// reading a full record (its plan) or mutating it without proof of the
// secret would let any reachable client exfiltrate or destroy the
// owner's traceback ability.
func verifyRecordSecret(r *http.Request, rec registry.Record) error {
	secret := r.Header.Get(api.SecretHeader)
	if secret == "" {
		return badRequest(fmt.Errorf("registry record access needs the master secret in the %s header", api.SecretHeader))
	}
	// Constant-time: the fingerprint is derived from the secret, so a
	// byte-wise early exit would leak match-prefix length to a caller
	// timing guesses.
	derived := crypt.RecipientWatermarkKey(secret, rec.RecipientID, rec.Eta).Fingerprint()
	if subtle.ConstantTimeCompare([]byte(derived), []byte(rec.KeyFingerprint)) != 1 {
		return fmt.Errorf("server: secret does not match recipient %q's registered key: %w", rec.RecipientID, core.ErrKeyMismatch)
	}
	return nil
}

func (s *Server) handleRecipientGet(w http.ResponseWriter, r *http.Request) (int, error) {
	id := r.PathValue("id")
	rec, ok := s.cfg.Registry.GetIn(tenantIDFrom(r.Context()), id)
	if !ok {
		return 0, notFound(fmt.Errorf("recipient %q is not registered", id))
	}
	if err := verifyRecordSecret(r, rec); err != nil {
		return 0, err
	}
	writeJSON(w, http.StatusOK, api.RecipientResponse{Version: api.Version, Recipient: rec})
	return http.StatusOK, nil
}

func (s *Server) handleRecipientDelete(w http.ResponseWriter, r *http.Request) (int, error) {
	id := r.PathValue("id")
	tid := tenantIDFrom(r.Context())
	rec, ok := s.cfg.Registry.GetIn(tid, id)
	if !ok {
		return 0, notFound(fmt.Errorf("recipient %q is not registered", id))
	}
	if err := verifyRecordSecret(r, rec); err != nil {
		return 0, err
	}
	had, err := s.cfg.Registry.DeleteIn(tid, id)
	if err != nil {
		return 0, err
	}
	if !had {
		return 0, notFound(fmt.Errorf("recipient %q is not registered", id))
	}
	w.WriteHeader(http.StatusNoContent)
	return http.StatusNoContent, nil
}

func (s *Server) handleRecipientImport(w http.ResponseWriter, r *http.Request) (int, error) {
	var rec registry.Record
	if err := api.DecodeJSON(r.Body, &rec); err != nil {
		return 0, badRequest(err)
	}
	// The record lands in the caller's tenant regardless of any
	// tenant_id in the document — imports cannot plant records in a
	// foreign namespace.
	rec.TenantID = tenantIDFrom(r.Context())
	if err := rec.Validate(); err != nil {
		return 0, badRequest(err)
	}
	// Importing requires the secret the record was fingerprinted under:
	// it proves the caller owns the record and keeps foreign-secret
	// records (which traceback could never verify) out of the registry.
	if err := verifyRecordSecret(r, rec); err != nil {
		return 0, err
	}
	if err := s.cfg.Registry.Put(rec); err != nil {
		return 0, err
	}
	writeJSON(w, http.StatusCreated, api.RecipientResponse{Version: api.Version, Recipient: rec})
	return http.StatusCreated, nil
}

// maxEnumLimit caps the per-request exhaustive-search override; the
// default is binning.DefaultEnumLimit (4096) and anything far beyond it
// is a denial-of-service lever, not a tuning knob.
const maxEnumLimit = 1 << 16

// prepare builds the per-request framework, table and key: overlay the
// request options on the server defaults, construct (and so validate)
// the framework, decode the table payload and derive the key set.
// Remote resource levers are clamped: Workers never exceeds the
// machine's core count (more never changes output, only scheduler
// pressure) and EnumLimit is bounded by maxEnumLimit.
func (s *Server) prepare(ctx context.Context, t api.Table, k api.Key, opts *api.Options) (*core.Framework, *relation.Table, crypt.WatermarkKey, error) {
	var zero crypt.WatermarkKey
	fw, err := s.frameworkFor(opts)
	if err != nil {
		return nil, nil, zero, err
	}
	tbl, err := api.DecodeTable(t)
	if err != nil {
		return nil, nil, zero, badRequest(err)
	}
	if err := checkRowQuota(ctx, tbl.NumRows()); err != nil {
		return nil, nil, zero, err
	}
	if k.Secret == "" || k.Eta == 0 {
		return nil, nil, zero, badRequest(fmt.Errorf("key needs a non-empty secret and eta >= 1"))
	}
	return fw, tbl, crypt.NewWatermarkKeyFromSecret(k.Secret, k.Eta), nil
}

// frameworkFor is the framework half of prepare, for endpoints (the
// fingerprint/traceback pair) that derive per-recipient keys instead of
// taking one api.Key.
func (s *Server) frameworkFor(opts *api.Options) (*core.Framework, error) {
	cfg, err := opts.Apply(s.cfg.Defaults)
	if err != nil {
		return nil, badRequest(err)
	}
	if cores := pool.Resolve(0); cfg.Workers > cores {
		cfg.Workers = cores
	}
	if cfg.Workers < 0 {
		cfg.Workers = 1
	}
	if cfg.EnumLimit > maxEnumLimit {
		return nil, badRequest(fmt.Errorf("enum_limit %d exceeds the server cap %d", cfg.EnumLimit, maxEnumLimit))
	}
	return core.New(s.cfg.Trees, cfg)
}

// badRequestError tags request-shape problems so writeError maps them
// to 400/bad_request without a core sentinel.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func badRequest(err error) error { return badRequestError{err: err} }

// notFoundError tags registry misses so writeError maps them to
// 404/not_found.
type notFoundError struct{ err error }

func (e notFoundError) Error() string { return e.err.Error() }
func (e notFoundError) Unwrap() error { return e.err }

func notFound(err error) error { return notFoundError{err: err} }

// overloadedError tags capacity-wait timeouts so they surface as
// 503/overloaded instead of the pipeline's deadline_exceeded.
type overloadedError struct{ err error }

func (e overloadedError) Error() string { return e.err.Error() }
func (e overloadedError) Unwrap() error { return e.err }

// tooManyRecipientsError tags fingerprint batches over the server's
// recipient cap so clients get a distinct machine code
// (too_many_recipients) telling them to split the batch, not to fix the
// request shape.
type tooManyRecipientsError struct{ err error }

func (e tooManyRecipientsError) Error() string { return e.err.Error() }
func (e tooManyRecipientsError) Unwrap() error { return e.err }

func tooManyRecipients(err error) error { return tooManyRecipientsError{err: err} }

// classify maps an error to its wire code and status: the server's own
// tagged wrappers first, then the pipeline sentinels via api.Classify.
func (s *Server) classify(err error) (code string, status int) {
	var (
		br  badRequestError
		nf  notFoundError
		ol  overloadedError
		tmr tooManyRecipientsError
		ua  unauthorizedError
		fb  forbiddenError
		rl  rateLimitedError
		qe  quotaExceededError
		mbe *http.MaxBytesError
	)
	switch {
	case errors.As(err, &ua):
		return api.CodeUnauthorized, http.StatusUnauthorized
	case errors.As(err, &fb):
		return api.CodeForbidden, http.StatusForbidden
	case errors.As(err, &rl):
		return api.CodeRateLimited, http.StatusTooManyRequests
	case errors.As(err, &qe):
		return api.CodeQuotaExceeded, http.StatusTooManyRequests
	case errors.As(err, &ol):
		return api.CodeOverloaded, http.StatusServiceUnavailable
	case errors.As(err, &mbe):
		return api.CodePayloadTooLarge, http.StatusRequestEntityTooLarge
	case errors.As(err, &nf):
		return api.CodeNotFound, http.StatusNotFound
	case errors.As(err, &tmr):
		return api.CodeTooManyRecipients, http.StatusBadRequest
	case errors.Is(err, registry.ErrConflict):
		return api.CodeConflict, http.StatusConflict
	case errors.As(err, &br):
		return api.CodeBadRequest, http.StatusBadRequest
	default:
		return api.Classify(err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, err error) int {
	code, status := s.classify(err)
	switch status {
	case http.StatusUnauthorized:
		w.Header().Set("WWW-Authenticate", "Bearer")
	case http.StatusTooManyRequests:
		var rl rateLimitedError
		if errors.As(err, &rl) && rl.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(rl.retryAfter/time.Second)))
		}
	}
	if sw, ok := w.(*statusWriter); ok {
		// Surface the wire code to the plane's audit record.
		sw.code = code
	}
	writeJSON(w, status, api.ErrorResponse{Error: api.Error{Code: code, Message: err.Error()}})
	return status
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is gone; nothing useful to do on error
}

// logWarn emits an internal (non-access) note on the structured
// logger; a no-op without one.
func (s *Server) logWarn(msg string, args ...any) {
	if s.log != nil {
		s.log.Warn(msg, args...)
	}
}

// watermarkParams rebuilds rival detection parameters consistent with
// the provenance record's embedding policy.
func watermarkParams(fw *core.Framework, key crypt.WatermarkKey, mark bitstr.Bits, dup int, prov core.Provenance) watermark.Params {
	return watermark.Params{
		Key:                    key,
		Mark:                   mark,
		Duplication:            dup,
		WeightedVoting:         prov.WeightedVoting,
		SaltPositionWithColumn: prov.SaltPositionWithColumn,
		BoundaryPermutation:    prov.BoundaryPermutation,
		Workers:                fw.Config().Workers,
	}
}
