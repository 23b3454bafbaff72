package server

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"heisendump"
	"heisendump/internal/gen"
	"heisendump/internal/telemetry"
)

// JobRequest is the POST /v1/jobs submission payload: one reproduction
// job — a subject program plus its failure-inducing input — under a
// tenant and an idempotency key.
type JobRequest struct {
	// JobKey is the client's idempotency key: resubmitting the same
	// (tenant, job_key) returns the existing job — queued, running or
	// completed — instead of enqueueing a duplicate, for as long as
	// the result lives in the store (ResultTTL after completion).
	// Empty means no deduplication.
	JobKey string `json:"job_key,omitempty"`
	// Tenant buckets the job for weighted-fair scheduling and
	// queue-depth admission control. Empty maps to "default".
	Tenant string `json:"tenant,omitempty"`
	// Source is the subject program in the mini language.
	Source string `json:"source"`
	// Input is the failure-inducing initial shared state.
	Input *InputSpec `json:"input,omitempty"`
	// Options tune the reproduction.
	Options JobOptions `json:"options,omitempty"`
}

// InputSpec mirrors heisendump.Input in JSON.
type InputSpec struct {
	Scalars map[string]int64   `json:"scalars,omitempty"`
	Arrays  map[string][]int64 `json:"arrays,omitempty"`
}

func (in *InputSpec) toInput() *heisendump.Input {
	if in == nil {
		return &heisendump.Input{}
	}
	return &heisendump.Input{Scalars: in.Scalars, Arrays: in.Arrays}
}

// JobOptions is the JSON mirror of the Session's functional options.
// Zero values take the server's defaults; every observable result
// (Found/Schedule/Tries) is a pure function of (source, input,
// options), so two jobs with equal payloads report bit-identical
// outcomes regardless of tenant, scheduling or cache state.
type JobOptions struct {
	// Workers is the per-job schedule-search pool width, 0 to 64 (0 =
	// GOMAXPROCS); anything else is refused with bad_request. The
	// result is bit-identical for any value.
	Workers int `json:"workers,omitempty"`
	// TrialBudget caps the schedule search; 0 = server default. A
	// negative budget is refused with bad_request.
	TrialBudget int `json:"trial_budget,omitempty"`
	// StressBudget caps the failure-provocation phase; 0 = server
	// default. A negative budget is refused with bad_request.
	StressBudget int `json:"stress_budget,omitempty"`
	// Bound is the preemption bound, 0 to 3 (0 = 2); anything else is
	// refused with bad_request.
	Bound int `json:"bound,omitempty"`
	// PlainChess disables CSV weighting and guidance.
	PlainChess bool `json:"plain_chess,omitempty"`
	// Heuristic is "temporal" (default) or "dependence".
	Heuristic string `json:"heuristic,omitempty"`
	// DeadlineMS bounds the job's total lifetime — queue wait plus
	// run — from admission; 0 means none. A job still queued at its
	// deadline is refused (deadline_exceeded, HTTP 504 to waiters)
	// without running; a job past it mid-run is cancelled at one-trial
	// granularity and reports its deterministic partial prefix. A
	// value below 0 or above maxDeadlineMS is refused with
	// bad_request at admission.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// maxBound is the largest preemption bound a job may ask for. The
// search's worklist covers every combination of up to bound preemption
// candidates, Σ C(n,s): for a 67-candidate program that is ~50,000
// at bound 3 and ~10^8 at 6. It is produced only as far as the search
// claims ranks, but a job that does not reproduce its failure may
// explore every combination, so the cap bounds that work.
const maxBound = 3

// maxDeadlineMS is the longest deadline a job may ask for: the largest
// millisecond count a time.Duration holds (about 292 years). A longer
// one would overflow into the past.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// maxWorkers is the widest schedule-search pool a job may ask for. A
// search starts one goroutine per worker, each with its own machine,
// up to the number of combinations (54,809 for apache-2 at bound 3),
// and any width gives the same result.
const maxWorkers = 64

// sessionOptions lowers the JSON options (defaults applied) to the
// Session's functional options.
func (o JobOptions) sessionOptions(obs heisendump.Observer) ([]heisendump.Option, *ErrorPayload) {
	if o.Bound < 0 || o.Bound > maxBound {
		return nil, &ErrorPayload{Code: CodeBadRequest,
			Message: fmt.Sprintf("bound %d out of range (want 0 to %d; 0 means 2)", o.Bound, maxBound)}
	}
	if o.Workers < 0 || o.Workers > maxWorkers {
		return nil, &ErrorPayload{Code: CodeBadRequest,
			Message: fmt.Sprintf("workers %d out of range (want 0 to %d; 0 means GOMAXPROCS)", o.Workers, maxWorkers)}
	}
	// The Session reads a negative trial budget as unlimited, which
	// would lift the server's cutoff.
	if o.TrialBudget < 0 || o.StressBudget < 0 {
		return nil, &ErrorPayload{Code: CodeBadRequest,
			Message: fmt.Sprintf("negative budget (trial_budget %d, stress_budget %d; 0 means the server default)", o.TrialBudget, o.StressBudget)}
	}
	if o.DeadlineMS < 0 || o.DeadlineMS > maxDeadlineMS {
		return nil, &ErrorPayload{Code: CodeBadRequest,
			Message: fmt.Sprintf("deadline_ms %d out of range (want 0 to %d; 0 means none)", o.DeadlineMS, maxDeadlineMS)}
	}
	opts := []heisendump.Option{
		heisendump.WithWorkers(o.Workers),
		heisendump.WithTrialBudget(o.TrialBudget),
		heisendump.WithStressBudget(o.StressBudget),
		heisendump.WithBound(o.Bound),
		heisendump.WithPlainChess(o.PlainChess),
		heisendump.WithObserver(obs),
	}
	switch o.Heuristic {
	case "", "temporal":
		opts = append(opts, heisendump.WithHeuristic(heisendump.Temporal))
	case "dependence", "dep":
		opts = append(opts, heisendump.WithHeuristic(heisendump.Dependence))
	default:
		return nil, &ErrorPayload{Code: CodeBadRequest,
			Message: fmt.Sprintf("unknown heuristic %q (want temporal or dependence)", o.Heuristic)}
	}
	return opts, nil
}

// RequestFromCorpusEntry maps one cmd/fuzz JSON-lines corpus entry to
// a job submission — the batch endpoint's payload format. The entry's
// recorded budgets ride along so a replayed search cannot be
// truncated differently from the recording; the job key is derived
// from the generator seed, making corpus replays idempotent.
func RequestFromCorpusEntry(e gen.Entry, tenant string, opts JobOptions) JobRequest {
	opts.TrialBudget = e.TrialBudget
	opts.StressBudget = e.StressBudget
	return JobRequest{
		JobKey:  fmt.Sprintf("corpus-%s-seed-%d", e.Name, e.Seed),
		Tenant:  tenant,
		Source:  e.Source,
		Options: opts,
	}
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"   // pipeline completed; Report carries the outcome
	StateFailed  = "failed" // terminal typed error; Report may carry a partial prefix
)

// JobStatus is the GET /v1/jobs/{id} JSON view of a job.
type JobStatus struct {
	ID     string `json:"id"`
	JobKey string `json:"job_key,omitempty"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	// Program is the compiled program's name.
	Program string `json:"program,omitempty"`
	// CacheHit reports whether the compiled program was shared from
	// the process-wide cache rather than compiled for this job.
	CacheHit    bool       `json:"cache_hit"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Report is the reproduction outcome (terminal states; on failed
	// it is the best-so-far partial when one exists).
	Report *JobReport `json:"report,omitempty"`
	// Error is the terminal typed error of a failed job.
	Error *ErrorPayload `json:"error,omitempty"`
}

// JobReport is the JSON projection of a completed reproduction the
// results store persists. Outcome, Found, Tries and Schedule are the
// deterministic fingerprint: for equal (source, input, options) they
// are bit-identical to a direct in-process Session.Reproduce — the
// differential smoke gate holds the service to exactly that.
type JobReport struct {
	// Outcome is "found", "schedule-not-found", "no-failure" or
	// "cancelled".
	Outcome string `json:"outcome"`
	Found   bool   `json:"found"`
	Tries   int    `json:"tries"`
	// Schedule is the canonical rendering of the winning preemption
	// set (chess.Result.ScheduleString); empty when nothing was found.
	Schedule string `json:"schedule"`

	// Cost counters (informational; worker-scheduling dependent).
	TrialsExecuted int   `json:"trials_executed,omitempty"`
	StepsExecuted  int64 `json:"steps_executed,omitempty"`

	// Failure provenance.
	StressAttempts int    `json:"stress_attempts,omitempty"`
	FailureReason  string `json:"failure_reason,omitempty"`
	FailurePC      string `json:"failure_pc,omitempty"`
	// CSVs is the critical-shared-variable count from the dump diff.
	CSVs int `json:"csvs,omitempty"`

	// Partial marks a report cut short by cancellation; the
	// deterministic fields then cover the committed prefix.
	Partial bool `json:"partial,omitempty"`
}

// Outcome labels.
const (
	OutcomeFound            = "found"
	OutcomeScheduleNotFound = "schedule-not-found"
	OutcomeNoFailure        = "no-failure"
	OutcomeCancelled        = "cancelled"
)

// BuildReport projects a Session result onto the wire report. It is
// exported (within the module) so the differential smoke gate runs
// direct in-process Sessions through the identical projection before
// comparing byte-for-byte with HTTP-fetched reports.
//
// ErrNoFailure and ErrScheduleNotFound are outcomes, not failures: the
// returned payload is nil for them. The remaining errors yield a
// non-nil payload alongside whatever partial report exists.
func BuildReport(rep *heisendump.Report, runErr error, hadDeadline bool) (*JobReport, *ErrorPayload) {
	out := &JobReport{}
	if rep != nil {
		out.Partial = rep.Partial
		if rep.Failure != nil {
			out.StressAttempts = rep.Failure.Attempts
			out.FailureReason = rep.Failure.Signature.Reason
			out.FailurePC = rep.Failure.Signature.PC.String()
		}
		if rep.Analysis != nil {
			out.CSVs = len(rep.Analysis.CSVs)
		}
		if rep.Search != nil {
			out.Found = rep.Search.Found
			out.Tries = rep.Search.Tries
			out.Schedule = rep.Search.ScheduleString()
			out.TrialsExecuted = rep.Search.TrialsExecuted
			out.StepsExecuted = rep.Search.StepsExecuted
		}
	}
	switch {
	case runErr == nil:
		out.Outcome = OutcomeFound
		return out, nil
	case errors.Is(runErr, heisendump.ErrScheduleNotFound):
		out.Outcome = OutcomeScheduleNotFound
		return out, nil
	case errors.Is(runErr, heisendump.ErrNoFailure):
		out.Outcome = OutcomeNoFailure
		return out, nil
	case errors.Is(runErr, heisendump.ErrCancelled):
		out.Outcome = OutcomeCancelled
		return out, classifyRunError(runErr, hadDeadline)
	default:
		return out, classifyRunError(runErr, hadDeadline)
	}
}

// run is what a job needs to execute and nothing a finished job
// serves. The worker reads it; job.finish drops it, so a terminal job
// pins neither its compiled program nor its observers.
type run struct {
	program *heisendump.Program
	input   *heisendump.Input
	// opts carry the job's observers, which reference its hub and
	// flight recorder.
	opts []heisendump.Option
	// flight records the run's recently committed ranks and fold
	// decisions; its snapshot is attached to the error payload of
	// failed/cancelled jobs as evidence of what the search was doing
	// when it stopped.
	flight   *telemetry.FlightRecorder
	deadline time.Time // zero = none
}

// job is the server-side job record. The immutable fields (identity,
// program name, event hub) are set at admission; mu guards the mutable
// lifecycle state. Once terminal, a job holds only what GET, SSE and
// /v1/stats read.
type job struct {
	id       string
	key      string // tenant-scoped idempotency key ("" = none)
	tenant   string
	progName string
	cacheHit bool
	// hub keeps the job's event history past its end, so a late
	// subscriber can replay it.
	hub *hub

	mu        sync.Mutex
	run       *run // nil once terminal
	state     string
	report    *JobReport
	errp      *ErrorPayload
	submitted time.Time
	started   time.Time
	finished  time.Time
	expires   time.Time     // store eviction time once terminal
	done      chan struct{} // closed on terminal transition
}

// status snapshots the wire view.
func (j *job) status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		ID:          j.id,
		JobKey:      j.key,
		Tenant:      j.tenant,
		State:       j.state,
		Program:     j.progName,
		CacheHit:    j.cacheHit,
		SubmittedAt: j.submitted,
		Report:      j.report,
		Error:       j.errp,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// pending returns the job's run, or nil once the job is terminal.
func (j *job) pending() *run {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.run
}

// start transitions queued → running.
func (j *job) start(now time.Time) {
	j.mu.Lock()
	j.state = StateRunning
	j.started = now
	j.mu.Unlock()
}

// finish records the terminal state, drops the job's run and wakes
// every waiter. It reports whether this call made the job terminal; a
// repeat call changes nothing.
func (j *job) finish(now time.Time, rep *JobReport, errp *ErrorPayload) bool {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		j.mu.Unlock()
		return false
	}
	if errp != nil {
		j.state = StateFailed
	} else {
		j.state = StateDone
	}
	j.run = nil
	j.report = rep
	j.errp = errp
	j.finished = now
	j.mu.Unlock()
	close(j.done)
	return true
}
