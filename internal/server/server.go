// Package server implements heisend, the reproduction-as-a-service
// batch server: an HTTP/JSON facade over the heisendump Session API.
//
// Clients POST dump+program reproduction jobs; a bounded multi-tenant
// scheduler (weighted deficit round-robin, queue-depth and deadline
// admission control) runs each job as its own Session on a shared
// worker budget. All Sessions compile through the process-wide shared
// program cache, so a hot program compiles once no matter how many
// tenants grind it. Each job's stage begins and search heartbeats,
// taken from the Session's event stream, stream over SSE; completed
// reports persist in an in-process store with TTL eviction.
//
// The service adds no nondeterminism: a job's Outcome, Found, Tries
// and Schedule are bit-identical to a direct in-process
// Session.Reproduce over the same (source, input, options) — the
// cmd/heisend differential smoke gate enforces exactly that against
// the generated-workload corpus.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"heisendump"
	"heisendump/internal/gen"
	"heisendump/internal/telemetry"
)

// Request body limits. A body that runs past its endpoint's limit is
// refused with a typed too_large payload (HTTP 413) instead of being
// read without bound.
const (
	maxRequestBody = 1 << 20  // POST /v1/jobs and POST /v1/analyze
	maxBatchBody   = 64 << 20 // POST /v1/batch
)

// Config tunes a Server. Zero values take the documented defaults.
type Config struct {
	// Workers is the number of concurrent jobs (default 4). Each job
	// runs one Session; the Session's own search pool width is the
	// job's workers option, so total parallelism is the product.
	Workers int
	// QueueDepth is the per-tenant backlog cap before admission
	// control sheds with queue_full (default 64).
	QueueDepth int
	// TenantWeights maps tenant name to its DRR weight (jobs per
	// round; default 1 each).
	TenantWeights map[string]int
	// ResultTTL is how long completed jobs stay fetchable (default
	// 15m).
	ResultTTL time.Duration
	// EventBuffer is each job's SSE ring capacity (default 1024).
	EventBuffer int
	// DefaultTrialBudget / DefaultStressBudget apply when a job's
	// options leave them zero (defaults 3000 / 6000 — the gen oracle's
	// budgets).
	DefaultTrialBudget  int
	DefaultStressBudget int
	// Clock is the time source (default time.Now); tests inject one.
	Clock func() time.Time
	// EnablePprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/ on the service mux. Off by default: the profiler
	// exposes goroutine stacks and heap contents, so it is opt-in
	// (cmd/heisend's -pprof flag).
	EnablePprof bool
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 15 * time.Minute
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 1024
	}
	if c.DefaultTrialBudget <= 0 {
		c.DefaultTrialBudget = 3000
	}
	if c.DefaultStressBudget <= 0 {
		c.DefaultStressBudget = 6000
	}
	if c.Clock == nil {
		c.Clock = time.Now //lintgate:allow telemetryclock the default for the injected clock must be real wall time; tests inject their own
	}
}

// Server is the batch service. Create with New, serve its Handler,
// and Shutdown when done.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sched *scheduler
	store *store

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	janitorStop chan struct{}
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		sched:       newScheduler(cfg.QueueDepth, cfg.TenantWeights),
		store:       newStore(cfg.ResultTTL, cfg.Clock),
		janitorStop: make(chan struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.janitor()
	return s
}

// Handler is the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops admission, cancels running jobs, and waits for the
// workers to drain. Queued jobs finish with shutting_down; running
// jobs finish cancelled with their deterministic partial reports.
func (s *Server) Shutdown() {
	s.sched.close()
	s.cancel()
	close(s.janitorStop)
	s.wg.Wait()
}

// worker pulls jobs off the weighted-fair queue and runs each as its
// own Session.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.sched.next()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job end to end: deadline admission, Session
// run, report projection, terminal event.
func (s *Server) runJob(j *job) {
	now := s.cfg.Clock()
	r := j.pending()
	hadDeadline := !r.deadline.IsZero()

	// Deadline admission: a job that spent its whole deadline queued
	// is refused without burning a worker slot on a doomed run.
	if hadDeadline && !now.Before(r.deadline) {
		telemetry.ServerJobsDeadline.Inc()
		telemetry.ServerJobsError.Inc()
		s.store.finish(j, nil, &ErrorPayload{
			Code:    CodeDeadlineExceeded,
			Message: "job deadline expired while queued; it was never started",
		})
		s.publishDone(j)
		return
	}

	ctx := s.ctx
	var cancel context.CancelFunc
	if hadDeadline {
		ctx, cancel = context.WithDeadline(ctx, r.deadline)
		defer cancel()
	}

	j.start(now)
	sess := heisendump.NewCompiled(r.program, r.input, r.opts...)
	rep, runErr := sess.Reproduce(ctx)
	jr, errp := BuildReport(rep, runErr, hadDeadline)
	if errp != nil {
		// Failed and cancelled jobs carry flight-recorder evidence: the
		// last committed ranks and fold decisions before the run
		// stopped. The
		// log rides on the error payload only — JobReport stays a pure
		// function of (source, input, options) for the differential
		// smoke gate.
		errp.Flight = r.flight.Snapshot()
		telemetry.ServerJobsError.Inc()
		if errp.Code == CodeDeadlineExceeded {
			telemetry.ServerJobsDeadline.Inc()
		}
	} else if jr != nil && jr.Outcome == OutcomeFound {
		telemetry.ServerJobsReproduced.Inc()
	} else {
		telemetry.ServerJobsNotReproduced.Inc()
	}
	s.store.finish(j, jr, errp)
	s.publishDone(j)
}

// publishDone appends the stream's final event and closes the hub.
func (s *Server) publishDone(j *job) {
	j.hub.append(Event{Type: EventDone, Status: j.status()})
	j.hub.close()
}

// admit compiles (through the shared cache), validates, and enqueues
// one request; it implements both /v1/jobs and each /v1/batch line.
func (s *Server) admit(req JobRequest) (*job, bool, *ErrorPayload) {
	if req.Source == "" {
		return nil, false, &ErrorPayload{Code: CodeBadRequest, Message: "source is required"}
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}

	// Compile at admission through the process-wide shared cache: bad
	// programs are rejected as typed 400s before they ever queue, and
	// N jobs over one hot source share a single immutable compiled
	// program.
	before := heisendump.CompileCacheStats()
	prog, err := heisendump.Compile(req.Source)
	if err != nil {
		return nil, false, classifySubmitError(err)
	}
	after := heisendump.CompileCacheStats()
	cacheHit := after.Hits > before.Hits

	input := req.Input.toInput()
	if err := heisendump.ValidateInput(prog, input); err != nil {
		return nil, false, classifySubmitError(err)
	}

	o := req.Options
	if o.TrialBudget == 0 {
		o.TrialBudget = s.cfg.DefaultTrialBudget
	}
	if o.StressBudget == 0 {
		o.StressBudget = s.cfg.DefaultStressBudget
	}

	h := newHub(s.cfg.EventBuffer)
	opts, optErr := o.sessionOptions(observer{h})
	if optErr != nil {
		return nil, false, optErr
	}

	// Every job gets a flight recorder; recording is observational
	// (results stay bit-identical) and the snapshot is only surfaced on
	// failed or cancelled jobs' error payloads.
	fl := telemetry.NewFlightRecorder(64)
	opts = append(opts, heisendump.WithObserver(fl))

	r := &run{program: prog, input: input, opts: opts, flight: fl}
	if o.DeadlineMS > 0 {
		r.deadline = s.cfg.Clock().Add(time.Duration(o.DeadlineMS) * time.Millisecond)
	}
	j := &job{
		key:    req.JobKey,
		tenant: tenant,
		// The name is a slice of the source text, which a finished job
		// must not pin.
		progName: strings.Clone(prog.Name),
		cacheHit: cacheHit,
		hub:      h,
		run:      r,
	}

	existing, dup := s.store.admit(j)
	if dup {
		return existing, true, nil
	}
	if ep := s.sched.enqueue(j); ep != nil {
		// Admission refused: the job never queued; mark it terminal so
		// a waiter on the idempotent id sees the refusal, not a hang.
		s.store.finish(j, nil, ep)
		s.publishDone(j)
		return nil, false, ep
	}
	telemetry.ServerJobsSubmitted.Inc()
	return j, false, nil
}

// handleSubmit is POST /v1/jobs: admit one job. 202 on enqueue, 200
// on an idempotent duplicate, 400/429/503 typed refusals. With
// ?wait=1 the response blocks for the terminal status (504 payload on
// deadline).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, bodyError(err, "bad JSON: "))
		return
	}
	j, dup, ep := s.admit(req)
	if ep != nil {
		writeError(w, ep)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		s.respondWhenDone(w, r, j)
		return
	}
	status := http.StatusAccepted
	if dup {
		status = http.StatusOK
	}
	writeJSON(w, status, j.status())
}

// respondWhenDone blocks until the job is terminal (or the client
// goes away) and writes the terminal status — with the error payload's
// transport status when the job failed.
func (s *Server) respondWhenDone(w http.ResponseWriter, r *http.Request, j *job) {
	select {
	case <-j.done:
	case <-r.Context().Done():
		return
	}
	st := j.status()
	code := http.StatusOK
	if st.Error != nil {
		code = st.Error.HTTPStatus()
	}
	writeJSON(w, code, st)
}

// handleGet is GET /v1/jobs/{id} (?wait=1 blocks for the terminal
// status).
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeError(w, &ErrorPayload{Code: CodeNotFound, Message: "no such job (never existed, or expired from the results store)"})
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		s.respondWhenDone(w, r, j)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents is GET /v1/jobs/{id}/events: the job's progress stream
// as Server-Sent Events. Each frame is `event: <type>` + `id: <seq>`
// + `data: <Event JSON>`; the stream replays retained history from
// ?after=<seq> (default 0 = from the start) and ends after the final
// "done" event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeError(w, &ErrorPayload{Code: CodeNotFound, Message: "no such job"})
		return
	}
	var after uint64
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, &ErrorPayload{Code: CodeBadRequest, Message: "bad after parameter: " + err.Error()})
			return
		}
		after = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	for {
		evs, closed, wake := j.hub.since(after)
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", e.Type, e.Seq, data)
			after = e.Seq
		}
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// BatchResult is one line's outcome in a POST /v1/batch response.
type BatchResult struct {
	Line int    `json:"line"`
	Name string `json:"name,omitempty"`
	ID   string `json:"id,omitempty"`
	// Dup marks an idempotent duplicate (the entry's corpus job key
	// was already bound).
	Dup   bool          `json:"dup,omitempty"`
	Error *ErrorPayload `json:"error,omitempty"`
}

// BatchResponse summarizes a corpus submission.
type BatchResponse struct {
	Accepted int           `json:"accepted"`
	Rejected int           `json:"rejected"`
	Results  []BatchResult `json:"results"`
}

// handleBatch is POST /v1/batch: a cmd/fuzz JSON-lines corpus
// (gen.Entry per line) submitted wholesale. Each entry becomes a job
// under the ?tenant= tenant (default "default") with its recorded
// budgets and a seed-derived idempotency key; per-entry admission
// outcomes come back in order. A body declared longer than the batch
// limit is refused before any entry is admitted; an undeclared-length
// body that runs past it is refused when the limit is reached, after
// the entries read so far were admitted (their seed-derived keys make
// a resubmission idempotent).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength > maxBatchBody {
		writeError(w, bodyError(&http.MaxBytesError{Limit: maxBatchBody}, ""))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	tenant := r.URL.Query().Get("tenant")
	opts := JobOptions{}
	if v := r.URL.Query().Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, &ErrorPayload{Code: CodeBadRequest, Message: "bad workers parameter: " + err.Error()})
			return
		}
		opts.Workers = n
	}

	resp := BatchResponse{Results: []BatchResult{}}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e gen.Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			resp.Rejected++
			resp.Results = append(resp.Results, BatchResult{Line: line,
				Error: &ErrorPayload{Code: CodeBadRequest, Message: "bad corpus entry: " + err.Error()}})
			continue
		}
		j, dup, ep := s.admit(RequestFromCorpusEntry(e, tenant, opts))
		if ep != nil {
			resp.Rejected++
			resp.Results = append(resp.Results, BatchResult{Line: line, Name: e.Name, Error: ep})
			continue
		}
		resp.Accepted++
		resp.Results = append(resp.Results, BatchResult{Line: line, Name: e.Name, ID: j.id, Dup: dup})
	}
	if err := sc.Err(); err != nil {
		writeError(w, bodyError(err, "reading body: "))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// AnalyzeRequest is the POST /v1/analyze payload: a bare program
// source. Analysis needs no input, options or queue slot — it never
// executes the program.
type AnalyzeRequest struct {
	Source string `json:"source"`
}

// AnalyzeResponse is the endpoint's result: the static analyzer's
// typed report plus whether the program came out of the shared compile
// cache (an analyze of a source a tenant already submitted as a job —
// or analyzed before — compiles and analyzes zero times).
type AnalyzeResponse struct {
	Report   *heisendump.StaticReport `json:"report"`
	CacheHit bool                     `json:"cache_hit"`
}

// handleAnalyze is POST /v1/analyze: compile through the shared cache
// and run the static lockset analyzer (see docs/ANALYSIS.md),
// synchronously — the analysis is milliseconds even on the largest
// corpus programs, so it bypasses the job queue entirely. Bad programs
// get the same typed 400s submission does; the report itself is
// memoized per compiled program, so repeat analyzes of a hot source
// are two cache lookups.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, bodyError(err, "bad JSON: "))
		return
	}
	if req.Source == "" {
		writeError(w, &ErrorPayload{Code: CodeBadRequest, Message: "source is required"})
		return
	}
	before := heisendump.CompileCacheStats()
	prog, err := heisendump.Compile(req.Source)
	if err != nil {
		writeError(w, classifySubmitError(err))
		return
	}
	after := heisendump.CompileCacheStats()
	writeJSON(w, http.StatusOK, AnalyzeResponse{
		Report:   heisendump.Analyze(prog),
		CacheHit: after.Hits > before.Hits,
	})
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	Compile   heisendump.CacheStats `json:"compile_cache"`
	Scheduler SchedStats            `json:"scheduler"`
	Store     StoreStats            `json:"store"`
	Workers   int                   `json:"workers"`
	// Telemetry is the process-wide metrics registry flattened to
	// series-name -> value — the same counters GET /metrics exposes as
	// Prometheus text (histograms contribute their _sum/_count).
	Telemetry map[string]int64 `json:"telemetry"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Stats{
		Compile:   heisendump.CompileCacheStats(),
		Scheduler: s.sched.stats(),
		Store:     s.store.stats(),
		Workers:   s.cfg.Workers,
		Telemetry: telemetry.Default().Snapshot(),
	})
}

// handleMetrics is GET /metrics: the process-wide telemetry registry
// in Prometheus text exposition format (0.0.4), followed by this
// server instance's point-in-time gauges (per-tenant queue depth,
// store occupancy). Counters are process-wide — two Servers in one
// process share them — while the instance gauges are this Server's.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.Default().WritePrometheus(w); err != nil {
		return
	}
	ss := s.sched.stats()
	tenants := make([]string, 0, len(ss.Tenants))
	for name := range ss.Tenants {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	depths := make([]telemetry.Sample, 0, len(tenants))
	for _, name := range tenants {
		depths = append(depths, telemetry.Sample{
			Labels: []telemetry.Label{{Key: "tenant", Value: name}},
			Value:  int64(ss.Tenants[name]),
		})
	}
	_ = telemetry.GaugeFamily(w, "heisen_server_tenant_queue_depth",
		"Pending jobs per tenant with a non-empty backlog.", depths...)
	_ = telemetry.GaugeFamily(w, "heisen_server_queued",
		"Pending jobs across all tenants.", telemetry.Sample{Value: int64(ss.Queued)})
	st := s.store.stats()
	_ = telemetry.GaugeFamily(w, "heisen_server_store_jobs",
		"Jobs resident in the results store (queued, running and terminal).",
		telemetry.Sample{Value: int64(st.Jobs)})
	_ = telemetry.GaugeFamily(w, "heisen_server_store_terminal",
		"Terminal jobs retained in the results store awaiting TTL eviction.",
		telemetry.Sample{Value: int64(st.Terminal)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// janitor periodically sweeps expired results.
func (s *Server) janitor() {
	defer s.wg.Done()
	t := time.NewTicker(time.Minute)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.store.sweep()
		case <-s.janitorStop:
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *ErrorPayload) {
	if e.Code == CodeQueueFull && e.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((e.RetryAfterMS+999)/1000, 10))
	}
	writeJSON(w, e.HTTPStatus(), struct {
		Error *ErrorPayload `json:"error"`
	}{e})
}
