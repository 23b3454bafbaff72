package heisendump

import (
	"context"
	"fmt"

	"heisendump/internal/core"
	"heisendump/internal/interp"
)

// Session is a configured reproduction run with the lifecycle controls
// a long-lived service needs: it is cancellable (every phase honors
// the context passed to Reproduce — the schedule search at one-trial
// granularity), observable (WithObserver subscribes to one event
// stream of stage spans, trials and search heartbeats), and resumable
// (NewAnalysis exposes the stage-structured analysis whose completed
// artifacts survive a cancelled run and are reused by the next call).
//
// Build one with New (which compiles through the shared program
// cache) or NewCompiled (over an already-compiled shared program),
// plus functional options:
//
//	s := heisendump.NewCompiled(prog, input,
//	    heisendump.WithWorkers(4),
//	    heisendump.WithTrialBudget(2000),
//	)
//	rep, err := s.Reproduce(ctx)
//
// A Session is safe for concurrent Reproduce calls only if its
// observers are; every phase is otherwise a pure function of (program,
// input, options), so repeated runs return bit-identical reports.
type Session struct {
	pipe *core.Pipeline
}

// Option configures a Session at construction time.
type Option func(*core.Config)

// WithWorkers sets the schedule-search worker-pool width (0 =
// GOMAXPROCS). The search result is bit-identical for any value.
func WithWorkers(n int) Option { return func(c *core.Config) { c.Workers = n } }

// WithHeuristic selects the CSV-access prioritization strategy
// (Temporal by default, or Dependence).
func WithHeuristic(h Heuristic) Option { return func(c *core.Config) { c.Heuristic = h } }

// WithAlignment selects the aligned-point method (AlignByIndex by
// default, or the AlignByInstructionCount baseline).
func WithAlignment(m AlignmentMethod) Option { return func(c *core.Config) { c.Alignment = m } }

// WithObserver attaches an Observer to the run's event stream: stage
// begins and ends, search trials and fold heartbeats; see Event for
// the delivery contract. Give it once per observer: each receives
// every event, in option order. A nil observer is ignored. A Tracer
// and a FlightRecorder are observers too. Observing is passive: Found,
// Schedule and Tries are bit-identical with or without observers.
// Cancelling the run's context from a fold event is the supported way
// to implement deterministic cutoffs.
func WithObserver(o Observer) Option {
	return func(c *core.Config) {
		if o != nil {
			c.Observers = append(c.Observers, o)
		}
	}
}

// WithTrialBudget cuts the schedule search off after n test runs (0 =
// unlimited) — the analogue of the paper's 18-hour cutoff. A negative
// n is unlimited too; heisend refuses one. The budget is applied to the
// deterministic sequential order, so the cut-off result does not
// depend on WithWorkers.
func WithTrialBudget(n int) Option { return func(c *core.Config) { c.MaxTries = n } }

// WithBound sets the preemption bound k (default 2). The search's
// worklist covers every combination of up to k preemption candidates,
// Σ C(n,s) for s ≤ k over the n candidates (reported, saturating, as
// SearchResult.CombinationsGenerated). It is produced only as far as
// the search claims ranks, so memory follows the tries a search runs;
// a search that never reproduces the failure still explores up to
// n^k combinations. heisend accepts 0 to 3.
func WithBound(k int) Option { return func(c *core.Config) { c.Bound = k } }

// WithPlainChess disables the CSV weighting and guided thread
// selection, yielding the original undirected CHESS baseline.
func WithPlainChess(on bool) Option { return func(c *core.Config) { c.PlainChess = on } }

// WithStressBudget bounds the failure-provocation phase's stress
// attempts (0 = the default of 20000). A negative n makes no attempt,
// so ProvokeFailure reports ErrNoFailure; heisend refuses one.
func WithStressBudget(n int) Option { return func(c *core.Config) { c.MaxStressAttempts = n } }

// WithStaticFocus feeds the static lockset analyzer's race-candidate
// focus set (see Analyze) to the schedule search: preemption
// combinations whose blocks touch statically flagged variables are
// explored first. This changes Tries by design — that is the payoff —
// while remaining bit-identical across Workers for a fixed program.
// Off (the default), the exploration order is exactly the unguided
// one.
func WithStaticFocus(on bool) Option { return func(c *core.Config) { c.StaticFocus = on } }

// New compiles a subject program through the process-wide shared
// program cache and builds a Session over it: the same source
// compiles once per process, and every Session built from it shares
// the immutable compiled program (each run still gets its own machine
// pool). A program Parse/Check rejects returns a typed *SourceError;
// an input disagreeing with the program's declarations a typed
// *InputError — both are the caller's fault, distinguishable with
// errors.As from internal failures.
//
// Callers that already hold a compiled *Program (a Workload, a
// Compile result shared across jobs) use NewCompiled.
func New(source string, input *Input, opts ...Option) (*Session, error) {
	prog, err := Compile(source)
	if err != nil {
		return nil, err
	}
	if err := interp.ValidateInput(prog, input); err != nil {
		return nil, err
	}
	return NewCompiled(prog, input, opts...), nil
}

// NewCompiled builds a Session for a compiled program and its
// failure-inducing input, running the static analyses once. Options
// default to the temporal heuristic, execution-index alignment,
// bound 2, GOMAXPROCS search workers and no trial budget.
// The compiled program is never mutated, so any number of
// concurrent Sessions may share one *Program.
func NewCompiled(prog *Program, input *Input, opts ...Option) *Session {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	return &Session{pipe: core.NewPipeline(prog, input, cfg)}
}

// Reproduce executes the full pipeline under ctx — provoke the
// failure, analyze its core dump, search for a failure-inducing
// schedule — and returns the complete Report.
//
// Cancellation (ctx cancelled or past its deadline) is honored
// cooperatively at every phase, within one trial in the schedule
// search; Reproduce then returns the best-so-far partial Report
// (never nil, Report.Partial set, a cancelled search carrying its
// deterministic committed prefix) together with an error wrapping
// ErrCancelled and the context's error. A search that completes
// without constructing a schedule returns the complete Report with an
// error wrapping ErrScheduleNotFound; an exhausted stress budget wraps
// ErrNoFailure. All three are distinguishable with errors.Is.
//
// With an uncancelled context the Report's Found, Schedule and Tries
// are bit-identical for any WithWorkers setting.
func (s *Session) Reproduce(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return s.pipe.RunContext(ctx)
}

// ProvokeFailure runs only the stress phase under ctx: provoke a crash
// and capture its core dump. Cancellation returns an error wrapping
// ErrCancelled; an exhausted budget wraps ErrNoFailure.
func (s *Session) ProvokeFailure(ctx context.Context) (*FailureReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return s.pipe.ProvokeFailureContext(ctx)
}

// Analyze runs the debugging-phase analysis of a provoked failure
// under ctx in one shot. Cancellation discards partial artifacts; use
// NewAnalysis for a resumable, stage-structured analysis.
func (s *Session) Analyze(ctx context.Context, fail *FailureReport) (*AnalysisReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return s.pipe.AnalyzeContext(ctx, fail)
}

// NewAnalysis starts a resumable stage-structured analysis of the
// failure: Analysis.ThroughContext runs stages up to a chosen point,
// keeps completed artifacts across cancellations, and
// Analysis.Reprioritize re-ranks CSV accesses under a different
// heuristic without repeating the expensive alignment re-execution.
func (s *Session) NewAnalysis(fail *FailureReport) *Analysis {
	return s.pipe.NewAnalysis(fail)
}

// Search runs only the schedule search under ctx, guided by a
// completed analysis. On cancellation the result is the best-so-far
// deterministic prefix (SearchResult.Cancelled set) and the error
// wraps ErrCancelled; a completed search that found no schedule
// returns the exhausted result with an error wrapping
// ErrScheduleNotFound.
func (s *Session) Search(ctx context.Context, fail *FailureReport, an *AnalysisReport) (*SearchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := s.pipe.ReproduceContext(ctx, fail, an)
	if err != nil {
		return res, err
	}
	if !res.Found {
		return res, fmt.Errorf("heisendump: %w after %d tries", ErrScheduleNotFound, res.Tries)
	}
	return res, nil
}
