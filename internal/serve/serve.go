// Package serve exposes the simulation engine as an HTTP scenario
// service — the `ealb-serve` daemon. Clients submit scenario specs as
// JSON and the service executes them on a shared engine pool:
//
//	POST   /v1/runs                 submit a scenario or sweep (?wait=1 blocks).
//	                                An Idempotency-Key header dedups retries:
//	                                a repeated key (per X-Tenant) answers with
//	                                the original run and Idempotency-Replayed:
//	                                true instead of starting a new one. With a
//	                                per-tenant quota configured, a tenant at
//	                                its active-run (queued+running) limit gets
//	                                429 Too Many Requests.
//	GET    /v1/runs                 list runs, newest last. ?status= keeps
//	                                one status (see Statuses); ?limit=N
//	                                keeps only the N most recent. N must be
//	                                a positive integer — limit=0 is a 400,
//	                                not "no limit": an unbounded list is
//	                                spelled by omitting the parameter.
//	GET    /v1/runs/{id}            one run with its result summary
//	GET    /v1/runs/{id}/intervals  stream per-interval stats as NDJSON;
//	                                tails a running simulation live (?cell=
//	                                selects a sweep cell, default 0)
//	GET    /v1/runs/{id}/trace      stream decision events as NDJSON for a
//	                                run submitted with "trace":true (?cell=
//	                                selects a sweep cell, default 0)
//	DELETE /v1/runs/{id}            cancel a queued or running run
//	GET    /metrics                 Prometheus text-format engine/service
//	                                counters and latency histograms
//	GET    /healthz                 liveness probe
//
// A request body is an engine.SweepSpec: the v1 single-run scalar form
// still round-trips unchanged, and any sweep axis may be a list
// (`{"sizes":[100,1000],"seeds":[1,2,3]}` runs six cells and returns
// per-cell results plus aggregates). Every run executes under its own
// context.Context: DELETE cancels it, a ?wait=1 client disconnect
// cancels it, and Shutdown drains or cancels all of them.
//
// The service holds live runs in memory and writes every state
// transition through a store.RunStore. The default in-memory store
// keeps the historical single-process behaviour; `ealb-serve
// -store-dir` selects the durable disk store, which survives restarts:
// on startup Recover reloads finished history and resumes interrupted
// runs from their per-cell checkpoints — determinism makes the resumed
// result byte-identical to an uninterrupted one. Every run records the
// normalized spec it executed, so a result can always be reproduced
// bit-for-bit from its recorded spec and seed.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ealb/internal/engine"
	"ealb/internal/store"
	"ealb/internal/trace"
)

// Run statuses.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// Statuses lists every run status the service reports.
func Statuses() []string {
	return []string{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled}
}

// Run is one submitted request and, once finished, its result. A
// single-scenario request (the v1 body) reports Scenario and Result; a
// sweep request reports Spec and Sweep.
//
//ealb:digest
type Run struct {
	ID     string `json:"id"`
	Status string `json:"status"`

	// Scenario and Result are set for single-scenario runs (v1 shape).
	Scenario *engine.Scenario `json:"scenario,omitempty"`
	Result   *engine.Result   `json:"result,omitempty"`

	// Spec and Sweep are set for multi-cell sweep runs.
	Spec  *engine.SweepSpec   `json:"spec,omitempty"`
	Sweep *engine.SweepResult `json:"sweep,omitempty"`

	Error string `json:"error,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	// seq orders the run list by submission; the zero-padded ID would
	// sort lexicographically wrong past run-999999. It is the store's
	// sequence number, so ordering spans restarts.
	seq int64
	// tenant and idemKey echo the submission's X-Tenant and
	// Idempotency-Key headers (quota accounting and replay dedup).
	tenant, idemKey string
	// expanded is the validated, expanded sweep the run executes (also
	// set for single-scenario runs, whose public Spec field stays
	// empty).
	expanded engine.ExpandedSweep
	// single marks a v1 single-scenario presentation.
	single bool
	// resume holds checkpointed cell results recovered from the store;
	// execute skips these cells (nil for fresh runs).
	resume map[int]engine.Result
	// cancel aborts the run's context (DELETE, Shutdown).
	cancel context.CancelFunc
	// stored marks a done run whose result was evicted from memory: it
	// is read back from the run store's record on demand (fullSnapshot).
	stored bool
	// tail buffers the encoded per-interval stats of cluster and farm
	// cells for live streaming; nil for policy runs. Released at every
	// terminal status: done runs serve intervals from the recorded
	// result, failed/cancelled ones from the store.
	tail *tail
	// traceTail buffers the encoded decision-event lines of runs
	// submitted with "trace":true; nil otherwise. Also released at
	// terminal status — events persist in the store (bounded by
	// maxTraceEventsPerCell and the memory store's retention window), so
	// finished runs stay streamable without pinning every event in RAM.
	traceTail *tail
}

// summary is the list view of a run: everything but the full result.
//
//ealb:digest
type summary struct {
	ID       string            `json:"id"`
	Status   string            `json:"status"`
	Scenario *engine.Scenario  `json:"scenario,omitempty"`
	Spec     *engine.SweepSpec `json:"spec,omitempty"`
	Error    string            `json:"error,omitempty"`
	Created  time.Time         `json:"created"`
}

// Server is the HTTP scenario service.
type Server struct {
	pool   *engine.Pool
	logger *slog.Logger // nil disables logging (SetLogger)

	// phases aggregates per-interval simulation phase timings across
	// every traced run; traceDropped counts decision events dropped past
	// the per-cell buffer cap. Both are exported on /metrics.
	phases       [trace.NumPhases]trace.Hist
	traceDropped atomic.Uint64

	// httpMu guards the per-route HTTP metrics map (observe.go).
	httpMu sync.Mutex
	//ealb:guarded-by(httpMu)
	routes map[string]*routeMetrics

	// store persists run records, interval/trace streams and cell
	// checkpoints; owner/leaseTTL are the service's claim identity for
	// shared stores; tenantQuota bounds active runs per tenant (0 = no
	// limit). All fixed at construction.
	store       store.RunStore
	owner       string
	leaseTTL    time.Duration
	tenantQuota int

	mu sync.Mutex
	//ealb:guarded-by(mu)
	runs map[string]*Run
	//ealb:guarded-by(mu)
	draining bool
	// idem maps tenant-scoped idempotency keys to run IDs for replay
	// dedup; rebuilt from the store by Recover.
	//ealb:guarded-by(mu)
	idem map[string]string
	// resident lists the done runs whose results are held in memory,
	// oldest first (at most residentResults).
	//ealb:guarded-by(mu)
	resident []*Run
	// wg counts every in-flight run — synchronous and asynchronous —
	// and is incremented in newRun under mu, so Shutdown's draining
	// flag and the drain wait cannot race a submission.
	wg sync.WaitGroup
}

// Options configures NewWith. The zero value reproduces New: an
// in-memory store, no tenant quota, and the default lease TTL.
type Options struct {
	// Store persists runs; nil selects a fresh in-memory store. The
	// caller owns a store it passes in (including Close).
	Store store.RunStore
	// Owner is this process's claim identity on a shared store. A
	// replica restarted under the same owner reclaims its interrupted
	// runs immediately; rivals must wait out the lease TTL. Defaults to
	// "ealb-serve".
	Owner string
	// LeaseTTL is how long a run claim lasts between renewals (renewed
	// on every cell checkpoint). Defaults to 30s.
	LeaseTTL time.Duration
	// TenantQuota caps a tenant's active (queued+running) runs;
	// submissions past it answer 429. 0 means unlimited.
	TenantQuota int
}

// New builds a service executing scenarios on the given pool, keeping
// runs in memory (the historical default).
func New(pool *engine.Pool) *Server {
	return NewWith(pool, Options{})
}

// NewWith builds a service with an explicit run store and submission
// limits. Call Recover before serving to reload a durable store's
// history and resume its interrupted runs.
func NewWith(pool *engine.Pool, opts Options) *Server {
	if opts.Store == nil {
		opts.Store = store.NewMemory()
	}
	if opts.Owner == "" {
		opts.Owner = "ealb-serve"
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	return &Server{
		pool:        pool,
		store:       opts.Store,
		owner:       opts.Owner,
		leaseTTL:    opts.LeaseTTL,
		tenantQuota: opts.TenantQuota,
		runs:        make(map[string]*Run),
		idem:        make(map[string]string),
	}
}

// Handler returns the service's routed HTTP handler, wrapped in the
// per-route metrics (and, with a logger installed, request-logging)
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/intervals", s.handleIntervals)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s.instrument(mux)
}

// Wait blocks until every in-flight run has finished.
func (s *Server) Wait() { s.wg.Wait() }

// Shutdown drains the service for process exit: new submissions are
// rejected with 503, and Shutdown blocks until every in-flight run has
// finished. When ctx expires first, every remaining run is cancelled and
// Shutdown waits for the cancellations to land, then returns ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	//ealb:allow-nondet cancel fan-out is order-insensitive; every run is cancelled
	for _, run := range s.runs {
		if run.cancel != nil {
			run.cancel()
		}
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

// handleSubmit accepts a scenario or sweep spec, validates it and
// executes it on the engine — asynchronously by default, synchronously
// with ?wait=1. A failed (or cancelled) synchronous run answers 422 with
// the recorded error; only a completed one answers 200.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec engine.SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid scenario JSON: %v", err))
		return
	}
	ex, err := spec.Expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	wait, _ := strconv.ParseBool(r.URL.Query().Get("wait"))
	base := context.Background()
	if wait {
		// The client's disconnect cancels a synchronous run; DELETE from
		// another connection can too.
		base = r.Context()
	}
	ctx, cancel := context.WithCancel(base)
	run, replayed, err := s.newRun(ex, spec.SingleRun(), cancel, r.Header.Get("X-Tenant"), r.Header.Get("Idempotency-Key"))
	switch {
	case errors.Is(err, errDraining):
		cancel()
		httpError(w, http.StatusServiceUnavailable, "service is draining")
		return
	case errors.Is(err, errQuota):
		cancel()
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant has %d active runs (the configured quota); retry when one finishes", s.tenantQuota))
		return
	case err != nil:
		cancel()
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("run store: %v", err))
		return
	}
	if replayed {
		// Idempotent retry: answer with the original run, no new work.
		cancel()
		w.Header().Set("Idempotency-Replayed", "true")
		snap := s.fullSnapshot(run.ID)
		code := http.StatusAccepted
		if terminal(snap.Status) {
			code = http.StatusOK
		}
		writeJSON(w, code, snap)
		return
	}
	if s.logger != nil {
		s.logger.Info("run submitted", "run", run.ID, "kind", ex.Spec().Kind,
			"cells", len(ex.Cells()), "wait", wait, "remote", r.RemoteAddr)
	}
	if wait {
		func() {
			defer s.wg.Done()
			defer cancel()
			s.execute(ctx, run)
		}()
		snap := s.fullSnapshot(run.ID)
		code := http.StatusOK
		if snap.Status != StatusDone {
			code = http.StatusUnprocessableEntity
		}
		writeJSON(w, code, snap)
		return
	}
	go func() {
		defer s.wg.Done()
		defer cancel()
		s.execute(ctx, run)
	}()
	writeJSON(w, http.StatusAccepted, s.snapshot(run.ID))
}

// Submission failures newRun distinguishes for HTTP mapping.
var (
	errDraining = errors.New("serve: draining")
	errQuota    = errors.New("serve: tenant quota exceeded")
)

// terminal reports whether a status is final.
func terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCancelled
}

// idemIndex scopes an idempotency key to its tenant.
func idemIndex(tenant, key string) string { return tenant + "\x00" + key }

// newRun registers a queued run under a store-unique id and adds it to
// the drain group. When the tenant already submitted this idempotency
// key, the original run returns with replayed=true and nothing new
// starts. On a fresh (non-replayed) success the caller owes one
// s.wg.Done once the run finishes.
func (s *Server) newRun(ex engine.ExpandedSweep, single bool, cancel context.CancelFunc, tenant, idemKey string) (*Run, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, errDraining
	}
	if idemKey != "" {
		if id, ok := s.idem[idemIndex(tenant, idemKey)]; ok {
			return s.runs[id], true, nil
		}
	}
	if s.tenantQuota > 0 {
		active := 0
		//ealb:allow-nondet quota counting is iteration-order-insensitive
		for _, run := range s.runs {
			if run.tenant == tenant && !terminal(run.Status) {
				active++
			}
		}
		if active >= s.tenantQuota {
			return nil, false, errQuota
		}
	}
	// The store reserves the ID: unique across restarts (the disk store
	// scans its directory and reserves with an atomic mkdir), so a
	// restarted process can never mint an ID that collides with
	// persisted history.
	id, seq, err := s.store.NewID()
	if err != nil {
		return nil, false, err
	}
	s.wg.Add(1)
	spec := ex.Spec()
	run := &Run{
		ID:       id,
		Status:   StatusQueued,
		Created:  time.Now().UTC(), //ealb:allow-nondet wall-clock run timestamp; lifecycle metadata, not simulation state
		seq:      seq,
		tenant:   tenant,
		idemKey:  idemKey,
		expanded: ex,
		single:   single,
		cancel:   cancel,
	}
	if single {
		sc := ex.Cells()[0]
		run.Scenario = &sc
	} else {
		sp := spec
		run.Spec = &sp
	}
	if spec.Kind == engine.KindCluster || spec.Kind == engine.KindFarm {
		run.tail = newTail(len(ex.Cells()))
		// Every cell of a sweep shares the spec's trace flag.
		if ex.Cells()[0].Trace {
			run.traceTail = newTail(len(ex.Cells()))
		}
	}
	s.runs[run.ID] = run
	if idemKey != "" {
		s.idem[idemIndex(tenant, idemKey)] = run.ID
	}
	// Write-through: claim and persist the queued run so a crash from
	// here on leaves a resumable record. Store errors past the ID
	// reservation degrade durability, not the run; they are logged, not
	// fatal.
	if _, err := s.store.Claim(run.ID, s.owner, s.leaseTTL); err != nil {
		s.logStoreError("claim", run.ID, err)
	}
	if err := s.store.PutRun(s.recordLocked(run)); err != nil {
		s.logStoreError("put", run.ID, err)
	}
	return run, false, nil
}

// recordLocked builds the durable form of a run. Caller holds s.mu.
//
//ealb:locked(mu)
func (s *Server) recordLocked(run *Run) store.Record {
	rec := store.Record{
		ID:       run.ID,
		Seq:      run.seq,
		Status:   run.Status,
		Single:   run.single,
		Tenant:   run.tenant,
		IdemKey:  run.idemKey,
		Error:    run.Error,
		Created:  run.Created,
		Started:  run.Started,
		Finished: run.Finished,
	}
	if raw, err := json.Marshal(run.expanded.Spec()); err == nil {
		rec.Spec = raw
	}
	var result any
	switch {
	case run.Result != nil:
		result = run.Result
	case run.Sweep != nil:
		result = run.Sweep
	}
	if result != nil {
		if raw, err := json.Marshal(result); err == nil {
			rec.Result = raw
		}
	}
	return rec
}

// logStoreError reports a non-fatal store write failure.
func (s *Server) logStoreError(op, id string, err error) {
	if s.logger != nil {
		s.logger.Error("run store write failed", "op", op, "run", id, "error", err)
	}
}

// execute runs the spec — skipping cells already checkpointed when
// resuming — and records the outcome, writing every transition through
// the store.
func (s *Server) execute(ctx context.Context, run *Run) {
	now := time.Now().UTC() //ealb:allow-nondet wall-clock run timestamp; lifecycle metadata, not simulation state
	s.mu.Lock()
	run.Status = StatusRunning
	run.Started = &now
	if err := s.store.PutRun(s.recordLocked(run)); err != nil {
		s.logStoreError("put", run.ID, err)
	}
	s.mu.Unlock()

	if s.logger != nil {
		s.logger.Info("run started", "run", run.ID, "resumedCells", len(run.resume))
	}

	hooks := engine.RunHooks{Completed: run.resume}
	if run.tail != nil {
		// Each interval is encoded once: the same line feeds the live
		// tail and the store, where failed/cancelled runs stream from
		// once the live buffers are released.
		hooks.Observe = func(cell int, st any) {
			raw, err := json.Marshal(st)
			if err != nil {
				return
			}
			run.tail.observe(cell, raw)
			if err := s.store.AppendInterval(run.ID, cell, raw); err != nil {
				s.logStoreError("interval", run.ID, err)
			}
		}
	}
	if run.traceTail != nil {
		hooks.TracerFor = func(cell int) trace.Tracer {
			return &tailTracer{srv: s, tail: run.traceTail, runID: run.ID, cell: cell}
		}
	}
	// Checkpoint each finished cell and renew the lease: a crash after
	// this point re-runs only the cells that had not checkpointed, and
	// determinism makes the merged resume byte-identical.
	hooks.CellDone = func(cell int, res engine.Result) {
		raw, err := json.Marshal(res)
		if err != nil {
			return
		}
		if err := s.store.PutCell(run.ID, store.CellResult{Cell: cell, Result: raw}); err != nil {
			s.logStoreError("cell", run.ID, err)
		}
		if _, err := s.store.Claim(run.ID, s.owner, s.leaseTTL); err != nil {
			s.logStoreError("claim", run.ID, err)
		}
	}
	res, err := s.pool.RunExpandedHooked(ctx, run.expanded, hooks)

	end := time.Now().UTC() //ealb:allow-nondet wall-clock run timestamp; lifecycle metadata, not simulation state
	s.mu.Lock()
	run.Finished = &end
	switch {
	case err == nil:
		run.Status = StatusDone
		if run.single {
			cell := res.Cells[0]
			run.Result = &cell
		} else {
			run.Sweep = &res
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		run.Status = StatusCancelled
		run.Error = err.Error()
	default:
		run.Status = StatusFailed
		run.Error = err.Error()
	}
	rec := s.recordLocked(run)
	s.mu.Unlock()

	// Persist the terminal record before releasing the live buffers, so
	// a reader that observes a released tail finds the outcome — then
	// drop what the record supersedes. A done run's intervals and cell
	// checkpoints live inside its recorded result; failed/cancelled runs
	// keep their interval streams in the store (that is where their
	// tails now stream from).
	if perr := s.store.PutRun(rec); perr != nil {
		s.logStoreError("put", run.ID, perr)
	} else if err == nil {
		s.retainResult(run)
	}
	if err == nil {
		if derr := s.store.DropIntervals(run.ID); derr != nil {
			s.logStoreError("drop", run.ID, derr)
		}
		if derr := s.store.DropCells(run.ID); derr != nil {
			s.logStoreError("drop", run.ID, derr)
		}
	}
	if rerr := s.store.Release(run.ID, s.owner); rerr != nil {
		s.logStoreError("release", run.ID, rerr)
	}
	// Release both tails unconditionally: the process no longer pins any
	// finished run's stream buffers (the pre-store service kept
	// failed-run intervals and every trace for its whole lifetime).
	// Readers fall through to the recorded result or the store.
	if run.tail != nil {
		run.tail.finish()
	}
	if run.traceTail != nil {
		run.traceTail.finish()
	}
	if s.logger != nil {
		s.mu.Lock()
		status, errMsg := run.Status, run.Error
		s.mu.Unlock()
		if errMsg != "" {
			s.logger.Info("run finished", "run", run.ID, "status", status,
				"duration", end.Sub(now), "error", errMsg)
		} else {
			s.logger.Info("run finished", "run", run.ID, "status", status,
				"duration", end.Sub(now))
		}
	}
}

// snapshot copies a run under the lock so handlers can marshal it
// without racing execute. A stored run's copy has no result; handlers
// that serve the result use fullSnapshot.
func (s *Server) snapshot(id string) *Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.runs[id]
	if !ok {
		return nil
	}
	cp := *run
	return &cp
}

// fullSnapshot is snapshot with the run's result, read back from the
// run store's record when it is no longer held in memory.
func (s *Server) fullSnapshot(id string) *Run {
	run := s.snapshot(id)
	if run == nil || !run.stored {
		return run
	}
	if rec, ok, err := s.store.GetRun(id); err == nil && ok {
		decodeResult(run, rec)
	} else if err != nil {
		s.logStoreError("get", id, err)
	}
	return run
}

// decodeResult fills run's result from a done record's marshaled result.
// A result that no longer decodes leaves the run without one.
func decodeResult(run *Run, rec store.Record) {
	if rec.Status != StatusDone || len(rec.Result) == 0 {
		return
	}
	if rec.Single {
		var res engine.Result
		if err := json.Unmarshal(rec.Result, &res); err == nil {
			run.Result = &res
		}
		return
	}
	var sw engine.SweepResult
	if err := json.Unmarshal(rec.Result, &sw); err == nil {
		run.Sweep = &sw
	}
}

// residentResults is how many done runs' results the service keeps in
// memory. Older done runs keep their place in the run index, but their
// per-interval results — the bulk of a run's memory — are dropped and
// read back from the run store's record on demand, so the memory
// finished runs hold stays bounded however many the index lists.
const residentResults = 4

// retainResult enrolls a done run whose record (result included) the
// store holds, evicting the oldest resident result beyond the window.
func (s *Server) retainResult(run *Run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resident = append(s.resident, run)
	for len(s.resident) > residentResults {
		old := s.resident[0]
		old.Result, old.Sweep, old.stored = nil, nil, true
		s.resident = append(s.resident[:0], s.resident[1:]...)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	status := q.Get("status")
	if status != "" {
		known := false
		for _, st := range Statuses() {
			if status == st {
				known = true
				break
			}
		}
		if !known {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown status %q (want one of %v)", status, Statuses()))
			return
		}
	}
	limit := -1
	if raw := q.Get("limit"); raw != "" {
		// limit=0 is rejected along with negatives and junk: it reads as
		// "no runs", which no client means, and treating it as "no limit"
		// would hide the typo. Omitting the parameter lists everything.
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid limit %q (want a positive integer)", raw))
			return
		}
		limit = n
	}

	s.mu.Lock()
	type row struct {
		seq int64
		s   summary
	}
	rows := make([]row, 0, len(s.runs))
	//ealb:allow-nondet iteration order erased by the seq sort below
	for _, run := range s.runs {
		if status != "" && run.Status != status {
			continue
		}
		rows = append(rows, row{run.seq, summary{
			ID: run.ID, Status: run.Status, Scenario: run.Scenario,
			Spec: run.Spec, Error: run.Error, Created: run.Created,
		}})
	}
	s.mu.Unlock()
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].seq < rows[j].seq })
	if limit >= 0 && len(rows) > limit {
		// Newest last: the tail of the ordered list is the most recent.
		rows = rows[len(rows)-limit:]
	}
	out := make([]summary, len(rows))
	for i, r := range rows {
		out[i] = r.s
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	run := s.fullSnapshot(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	writeJSON(w, http.StatusOK, run)
}

// handleCancel aborts a queued or running run. It returns promptly: the
// engine observes the cancellation at the next interval boundary and the
// run then lands in the cancelled status.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	run, ok := s.runs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	switch run.Status {
	case StatusQueued, StatusRunning:
	default:
		status := run.Status
		s.mu.Unlock()
		httpError(w, http.StatusConflict, fmt.Sprintf("run is already %s", status))
		return
	}
	cancel := run.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	writeJSON(w, http.StatusAccepted, s.snapshot(r.PathValue("id")))
}

// handleIntervals streams per-interval stats of one cluster or farm
// cell as newline-delimited JSON (see streamTail). A done run streams the
// remainder from its recorded result; a failed/cancelled one streams it
// from the store and closes with the terminal status line, so a tail
// client sees why no more intervals will come.
func (s *Server) handleIntervals(w http.ResponseWriter, r *http.Request) {
	s.streamTail(w, r, func(run *Run) *tail { return run.tail },
		"run has no per-interval stats (not a cluster or farm scenario)",
		func(lw *lineWriter, run *Run, cell, sent int) {
			snap := s.fullSnapshot(run.ID)
			if snap.Status == StatusDone {
				snap.writeRecordedStats(lw, cell, sent)
				return
			}
			if lines, err := s.store.Intervals(run.ID, cell); err == nil && sent < len(lines) {
				if !lw.write(lines[sent:]) {
					return
				}
			}
			status, _ := json.Marshal(map[string]string{"status": snap.Status, "error": snap.Error})
			lw.write([][]byte{status})
		})
}

// streamTail serves one cell of a run's live stream as newline-delimited
// JSON. It tails a running (or still queued) run: buffered lines stream
// immediately and new ones follow as the run produces them. Once the run
// reaches a terminal status the tail is released and rest writes the
// remainder past the sent lines. pick selects the tail; a run without
// one gets a 409 carrying missing. ?cell= selects a sweep cell by its
// expansion index (default 0).
func (s *Server) streamTail(w http.ResponseWriter, r *http.Request, pick func(*Run) *tail, missing string, rest func(lw *lineWriter, run *Run, cell, sent int)) {
	run := s.snapshot(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	t := pick(run)
	if t == nil {
		httpError(w, http.StatusConflict, missing)
		return
	}
	cell := 0
	if raw := r.URL.Query().Get("cell"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid cell %q", raw))
			return
		}
		cell = n
	}
	if cell >= t.n {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no such cell %d (run has %d)", cell, t.n))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	lw := &lineWriter{w: w}
	sent := 0
	for {
		lines, released, wake := t.after(cell, sent)
		if released {
			rest(lw, run, cell, sent)
			return
		}
		if !lw.write(lines) {
			return
		}
		sent += len(lines)
		if len(lines) > 0 {
			continue // re-check before blocking: more may have arrived
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// lineWriter writes NDJSON lines to a response in 64 KiB batches.
type lineWriter struct {
	w   http.ResponseWriter
	buf []byte
}

// add buffers one line, writing the batch out once it reaches 64 KiB.
// It reports false once the client has gone away.
func (lw *lineWriter) add(line []byte) bool {
	lw.buf = append(append(lw.buf, line...), '\n')
	if len(lw.buf) < 64<<10 {
		return true
	}
	_, err := lw.w.Write(lw.buf)
	lw.buf = lw.buf[:0]
	return err == nil
}

// flush writes out the buffered lines and flushes the response.
func (lw *lineWriter) flush() bool {
	if len(lw.buf) > 0 {
		_, err := lw.w.Write(lw.buf)
		lw.buf = lw.buf[:0]
		if err != nil {
			return false
		}
	}
	if f, ok := lw.w.(http.Flusher); ok {
		f.Flush()
	}
	return true
}

// write sends lines as one flushed batch; no lines is a no-op.
func (lw *lineWriter) write(lines [][]byte) bool {
	if len(lines) == 0 {
		return true
	}
	for _, ln := range lines {
		if !lw.add(ln) {
			return false
		}
	}
	return lw.flush()
}

// writeRecordedStats streams the recorded per-interval stats of one
// cluster or farm cell of a finished run past from, each marshaled as
// the live observer marshals it.
func (run *Run) writeRecordedStats(lw *lineWriter, cell, from int) {
	var res *engine.Result
	switch {
	case run == nil:
	case run.Result != nil && cell == 0:
		res = run.Result
	case run.Sweep != nil && cell < len(run.Sweep.Cells):
		res = &run.Sweep.Cells[cell]
	}
	switch {
	case res == nil:
	case res.Cluster != nil:
		writeLines(lw, res.Cluster.Stats, from)
	case res.Farm != nil:
		writeLines(lw, res.Farm.Stats, from)
	}
}

// writeLines marshals items[from:] one line each and flushes them.
func writeLines[T any](lw *lineWriter, items []T, from int) {
	if from >= len(items) {
		return
	}
	for _, v := range items[from:] {
		raw, err := json.Marshal(v)
		if err != nil || !lw.add(raw) {
			return
		}
	}
	lw.flush()
}

// tail buffers a run's per-cell stream as encoded NDJSON lines (without
// the newline) so clients can stream them while the run is still going:
// interval stats in the interval tail, decision events in the trace
// tail. Once the run reaches a terminal status the buffers are released
// — the same data lives in the recorded result or the run store.
type tail struct {
	n int // cell count, stable after construction

	mu sync.Mutex
	//ealb:guarded-by(mu)
	cells [][][]byte
	//ealb:guarded-by(mu)
	released bool
	//ealb:guarded-by(mu)
	wake chan struct{} // closed and replaced on the first append/finish after an after
	//ealb:guarded-by(mu)
	armed bool // a reader holds wake: the next append/finish must close it
}

func newTail(cells int) *tail {
	return &tail{n: cells, cells: make([][][]byte, cells), wake: make(chan struct{})}
}

// releasedTail builds a tail already in the terminal released state —
// recovered terminal runs, whose streams live in the store or the
// recorded result.
func releasedTail(cells int) *tail {
	t := newTail(cells)
	t.finish()
	return t
}

// preload seeds a cell's buffer with stored lines before the run
// (re)starts: a resumed run's checkpointed cells never re-observe, so
// live tail clients get their lines from the preloaded ones instead.
func (t *tail) preload(cell int, lines [][]byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cell < 0 || cell >= len(t.cells) || t.released {
		return
	}
	t.cells[cell] = append(t.cells[cell], lines...)
}

// observe appends one line and wakes blocked readers. It is called from
// engine worker goroutines.
func (t *tail) observe(cell int, line []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cell < 0 || cell >= len(t.cells) || t.released {
		return
	}
	t.cells[cell] = append(t.cells[cell], line)
	t.wakeLocked()
}

// wakeLocked closes the wake channel handed out since the last wake, if
// any, and replaces it. With no reader waiting there is nothing to
// close, so a busy writer does not allocate a channel per line. Caller
// holds t.mu.
//
//ealb:locked(mu)
func (t *tail) wakeLocked() {
	if !t.armed {
		return
	}
	close(t.wake)
	t.wake = make(chan struct{})
	t.armed = false
}

// finish marks the run terminal, drops the buffers (the caller
// guarantees the run's recorded result or the store now holds them) and
// wakes blocked readers.
func (t *tail) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.released = true
	t.cells = nil
	t.wakeLocked()
}

// after returns the cell's lines past from, whether the tail is
// released, and a channel that is closed on the next append/finish. Once
// released the buffers are gone and the caller must read the run's
// recorded result or the store instead.
func (t *tail) after(cell, from int) (lines [][]byte, released bool, wake <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.released {
		return nil, true, t.wake
	}
	t.armed = true
	lines = t.cells[cell]
	if from > len(lines) {
		from = len(lines)
	}
	return lines[from:], false, t.wake
}

// metricDef describes one exported metric.
type metricDef struct {
	name, help, kind string
	value            string
}

// handleMetrics writes the engine and service counters in the Prometheus
// text exposition format, including the # HELP and # TYPE comment lines
// real scrapers require.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.pool.Stats()
	s.mu.Lock()
	var queued, running, done, failed, cancelled int
	//ealb:allow-nondet status counting is iteration-order-insensitive
	for _, run := range s.runs {
		switch run.Status {
		case StatusQueued:
			queued++
		case StatusRunning:
			running++
		case StatusDone:
			done++
		case StatusFailed:
			failed++
		case StatusCancelled:
			cancelled++
		}
	}
	s.mu.Unlock()

	metrics := []metricDef{
		{"ealb_service_runs_queued", "Service runs waiting to start.", "gauge", fmt.Sprintf("%d", queued)},
		{"ealb_service_runs_running", "Service runs currently executing.", "gauge", fmt.Sprintf("%d", running)},
		{"ealb_service_runs_done", "Service runs finished successfully.", "gauge", fmt.Sprintf("%d", done)},
		{"ealb_service_runs_failed", "Service runs finished with an error.", "gauge", fmt.Sprintf("%d", failed)},
		{"ealb_service_runs_cancelled", "Service runs cancelled before completion.", "gauge", fmt.Sprintf("%d", cancelled)},
		{"ealb_engine_workers", "Engine worker pool size.", "gauge", fmt.Sprintf("%d", st.Workers)},
		{"ealb_engine_jobs_submitted_total", "Simulation jobs submitted to the pool.", "counter", fmt.Sprintf("%d", st.JobsSubmitted)},
		{"ealb_engine_jobs_completed_total", "Simulation jobs completed by the pool.", "counter", fmt.Sprintf("%d", st.JobsCompleted)},
		{"ealb_engine_jobs_failed_total", "Simulation jobs that failed (including cancellations).", "counter", fmt.Sprintf("%d", st.JobsFailed)},
		{"ealb_engine_queue_depth", "Jobs submitted but not yet started.", "gauge", fmt.Sprintf("%d", st.QueueDepth)},
		{"ealb_engine_intervals_simulated_total", "Reallocation intervals completed by cluster jobs.", "counter", fmt.Sprintf("%d", st.IntervalsSimulated)},
		{"ealb_cluster_failures_total", "Server failures injected by completed jobs (churn process plus manual injection).", "counter", fmt.Sprintf("%d", st.ClusterFailures)},
		{"ealb_cluster_apps_lost_total", "Applications lost to failures with no surviving capacity, across completed jobs.", "counter", fmt.Sprintf("%d", st.ClusterAppsLost)},
		{"ealb_simulated_joules_total", "Total energy simulated by completed jobs, in Joules.", "counter", fmt.Sprintf("%.6g", st.SimulatedJoules)},
		{"ealb_simulated_joules_saved_total", "Simulated savings versus always-on baselines, in Joules.", "counter", fmt.Sprintf("%.6g", st.JoulesSaved)},
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind)
		fmt.Fprintf(w, "%s %s\n", m.name, m.value)
	}
	w.Write(s.appendHistMetrics(nil))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
