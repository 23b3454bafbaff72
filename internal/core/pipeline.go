// Package core wires the full reproduction pipeline together — the
// paper's primary contribution:
//
//	failure core dump
//	  → reverse-engineered failure index        (Algorithm 1)
//	  → aligned point in a deterministic re-run  (Fig. 7)
//	  → aligned-point core dump & comparison     (§4)
//	  → prioritized CSV accesses                 (temporal / dependence)
//	  → enhanced CHESS schedule search           (Algorithm 2)
//	  → failure-inducing schedule
//
// It also implements the instruction-count alignment baseline the
// paper evaluates in Table 5.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"heisendump/internal/chess"
	"heisendump/internal/coredump"
	"heisendump/internal/ctrldep"
	"heisendump/internal/index"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/sched"
	"heisendump/internal/slicing"
	"heisendump/internal/statics"
	"heisendump/internal/telemetry"
)

// AlignmentMethod selects how the aligned point is located.
type AlignmentMethod int

const (
	// AlignByIndex uses execution-index alignment (the paper's
	// technique).
	AlignByIndex AlignmentMethod = iota
	// AlignByInstructionCount uses thread-local instruction counts
	// (the Table 5 baseline).
	AlignByInstructionCount
)

func (m AlignmentMethod) String() string {
	if m == AlignByInstructionCount {
		return "instruction-count"
	}
	return "execution-index"
}

// Config tunes a reproduction.
type Config struct {
	// Heuristic prioritizes CSV accesses; the default is Temporal.
	Heuristic slicing.Heuristic
	// Alignment selects the aligned-point method.
	Alignment AlignmentMethod
	// Bound is the preemption bound (default 2).
	Bound int
	// PlainChess disables both the weighting and the guided thread
	// selection, yielding the original CHESS baseline.
	PlainChess bool
	// MaxTries cuts off the schedule search (0 = unlimited), the
	// analogue of the paper's 18-hour cutoff.
	MaxTries int
	// MaxStressAttempts bounds the failure-provocation phase.
	MaxStressAttempts int
	// Workers is the schedule-search worker-pool width (0 =
	// GOMAXPROCS). The search result is deterministic for any value:
	// the winning schedule is always the lowest-ranked one.
	Workers int
	// StaticFocus runs the static lockset analyzer (internal/statics)
	// over the program once and feeds its race-candidate focus set to
	// the schedule search (chess.Options.Static): preemption
	// combinations touching statically flagged variables explore first.
	// The reordering changes Tries by design; for a fixed program it
	// remains bit-identical across Workers. Off, the search
	// order is exactly the unguided one.
	StaticFocus bool
	// Observers receive the run's event stream, each every event in
	// order: stage begins and ends, search trials and fold heartbeats;
	// see telemetry.Event for the delivery contract. Strictly
	// observational: results are bit-identical with observers attached
	// or not.
	Observers telemetry.Observers
}

func (c Config) withDefaults() Config {
	if c.Bound == 0 {
		c.Bound = 2
	}
	if c.MaxStressAttempts == 0 {
		c.MaxStressAttempts = 20000
	}
	return c
}

// StepLimit bounds every execution a pipeline runs: each stress
// attempt, the alignment re-runs and each search trial.
const StepLimit = 2_000_000

// Pipeline reproduces failures of one program + input.
type Pipeline struct {
	Prog  *ir.Program
	Input *interp.Input
	PDeps *ctrldep.ProgramDeps
	Cfg   Config

	// inputErr records an input/declaration mismatch detected at
	// construction (interp.ValidateInput); every run entry point
	// surfaces it instead of executing with a silently normalized
	// input.
	inputErr error
}

// NewPipeline builds a pipeline, running the static analyses once.
// The input is validated against the program's declarations here; a
// mismatch (unknown or pointer-typed scalar seed, array seed whose
// length disagrees with the declared size) is reported as a typed
// *interp.InputError by the first phase that would execute.
func NewPipeline(prog *ir.Program, input *interp.Input, cfg Config) *Pipeline {
	return &Pipeline{
		Prog:     prog,
		Input:    input,
		PDeps:    ctrldep.AnalyzeProgram(prog),
		Cfg:      cfg.withDefaults(),
		inputErr: interp.ValidateInput(prog, input),
	}
}

// NewMachine builds a fresh machine on the pipeline's program/input.
// It is safe for concurrent use, so the parallel schedule search hands
// it directly to its worker pool: the compiled program is immutable
// and shared, and the input is cloned per machine — interp.New only
// reads the input today, so the clone is insurance that no two workers
// ever see shared mutable input state even if Input grows some.
func (p *Pipeline) NewMachine() *interp.Machine {
	m := interp.New(p.Prog, p.Input.Clone())
	m.MaxSteps = StepLimit
	return m
}

// FailureReport describes the provoked failure (production phase).
type FailureReport struct {
	// Dump is the failure core dump.
	Dump *coredump.Dump
	// DumpBytes is its serialized size.
	DumpBytes int
	// Seed is the interleaving seed that provoked it.
	Seed int64
	// Attempts is the number of stress iterations used.
	Attempts int
	// Signature identifies the failure for the search phase.
	Signature chess.FailureSignature
}

// ProvokeFailureContext stress-tests the program under random
// interleavings until it crashes, then captures the failure core dump.
// This phase stands in for the production run; it is not part of the
// technique's cost. The context is polled between (and during) stress
// attempts: cancellation returns an error wrapping ErrCancelled; an
// exhausted attempt budget returns one wrapping ErrNoFailure. Seeds
// are tried in a fixed order, so an uncancelled call is deterministic.
func (p *Pipeline) ProvokeFailureContext(ctx context.Context) (*FailureReport, error) {
	if p.inputErr != nil {
		return nil, p.inputErr
	}
	defer p.stage("provoke")()
	m, st := sched.StressContext(ctx, p.NewMachine, p.Cfg.MaxStressAttempts)
	if m == nil {
		if err := ctx.Err(); err != nil {
			return nil, Cancelled(err)
		}
		return nil, fmt.Errorf("core: %w in %d attempts", ErrNoFailure, p.Cfg.MaxStressAttempts)
	}
	dump, err := coredump.CaptureCrash(m)
	if err != nil {
		return nil, err
	}
	size, err := dump.Size()
	if err != nil {
		return nil, err
	}
	return &FailureReport{
		Dump:      dump,
		DumpBytes: size,
		Seed:      st.Seed,
		Attempts:  st.Attempts,
		Signature: chess.FailureSignature{PC: m.Crash.PC, Reason: m.Crash.Reason},
	}, nil
}

// AnalysisReport carries the debugging-phase artifacts and costs.
type AnalysisReport struct {
	// FailureIndex is the reverse-engineered index (nil under the
	// instruction-count baseline).
	FailureIndex *index.Index
	// IndexLen is its region-path length (Table 3's len(index)).
	IndexLen int
	// AlignKind reports exact/closest alignment.
	AlignKind index.AlignKind
	// AlignSteps is the passing-run step count at the aligned point.
	AlignSteps int64
	// AlignPC is the aligned instruction.
	AlignPC ir.PC
	// AlignedDump is the dump captured at the aligned point.
	AlignedDump *coredump.Dump
	// AlignedDumpBytes is its serialized size.
	AlignedDumpBytes int
	// Diff is the dump comparison.
	Diff *coredump.DiffResult
	// CSVs are the critical shared variables.
	CSVs []coredump.ValueDiff
	// Accesses are the prioritized CSV accesses.
	Accesses []slicing.Access
	// Candidates are the annotated preemption candidates.
	Candidates []chess.Candidate
	// PassingSteps is the passing run's length.
	PassingSteps int64
	// ThreadSteps is the failing thread's instruction count in the
	// failing run (Table 5's instrs column).
	ThreadSteps int64

	// Costs (Table 6).
	ReverseTime time.Duration
	AlignTime   time.Duration
	DumpTime    time.Duration
	DiffTime    time.Duration
	SliceTime   time.Duration
}

// AnalyzeContext performs the debugging-phase analysis in one shot:
// reverse engineer the failure index, re-execute deterministically to
// find the aligned point, capture and compare dumps, and prioritize
// CSV accesses. It is equivalent to running every Stage of a
// NewAnalysis. The context is checked between analysis stages and
// polled inside the long deterministic re-executions. Cancellation
// returns an error wrapping ErrCancelled and discards the partial
// report — use NewAnalysis + ThroughContext to keep the artifacts of
// completed stages.
func (p *Pipeline) AnalyzeContext(ctx context.Context, fail *FailureReport) (*AnalysisReport, error) {
	a := p.NewAnalysis(fail)
	if err := a.ThroughContext(ctx, StageCandidates); err != nil {
		return nil, err
	}
	return a.Report, nil
}

// Searcher builds the schedule searcher for a completed analysis;
// callers may tweak its Opts before SearchContext (ablation studies
// do). The pipeline's observers are the searcher's Observers.
func (p *Pipeline) Searcher(fail *FailureReport, an *AnalysisReport) *chess.Searcher {
	s := &chess.Searcher{
		NewMachine: p.NewMachine,
		Candidates: an.Candidates,
		Target:     fail.Signature,
		Opts: chess.Options{
			Bound:        p.Cfg.Bound,
			Weighted:     !p.Cfg.PlainChess,
			Guided:       !p.Cfg.PlainChess,
			MaxTries:     p.Cfg.MaxTries,
			PassingSteps: an.PassingSteps,
			Workers:      p.Cfg.Workers,
			Observers:    p.Cfg.Observers,
		},
	}
	if p.Cfg.StaticFocus {
		s.Opts.Static = chess.NewFocus(p.Prog, statics.Analyze(p.Prog).FocusSet())
	}
	return s
}

// stage delivers a stage-begin event to the pipeline's observers and
// returns the function that delivers its end, carrying the same
// process-unique span id.
func (p *Pipeline) stage(name string) (end func()) {
	obs := p.Cfg.Observers
	if len(obs) == 0 {
		return func() {}
	}
	span := telemetry.NewSpan()
	obs.Observe(telemetry.Event{Kind: telemetry.KindStageBegin, Stage: name, Span: span})
	return func() { obs.Observe(telemetry.Event{Kind: telemetry.KindStageEnd, Stage: name, Span: span}) }
}

// ReproduceContext runs the schedule search guided by the analysis.
// The context is polled at one-trial granularity; on cancellation the
// returned result is the best-so-far deterministic prefix
// (Result.Cancelled set) and the error wraps ErrCancelled. A search
// that completes without finding a schedule is not an error here —
// callers that want ErrScheduleNotFound semantics use RunContext.
func (p *Pipeline) ReproduceContext(ctx context.Context, fail *FailureReport, an *AnalysisReport) (*chess.Result, error) {
	if p.inputErr != nil {
		return nil, p.inputErr
	}
	end := p.stage("search")
	res := p.Searcher(fail, an).SearchContext(ctx)
	end()
	if res.Cancelled {
		return res, Cancelled(ctx.Err())
	}
	return res, nil
}

// Report is the complete outcome of a reproduction.
type Report struct {
	Failure  *FailureReport
	Analysis *AnalysisReport
	Search   *chess.Result
	// Partial marks a report cut short by context cancellation: the
	// populated sections are the best-so-far artifacts of the stages
	// that completed (later sections are nil, and a cancelled Search
	// carries its deterministic committed prefix). A Partial report
	// always travels with an error wrapping ErrCancelled.
	Partial bool
}

// RunContext executes the full pipeline under ctx: provoke, analyze,
// reproduce. On cancellation it returns the best-so-far partial Report
// (never nil, Partial set) together with an error wrapping
// ErrCancelled; a search that completes without constructing a
// schedule returns the complete Report with an error wrapping
// ErrScheduleNotFound; an exhausted stress budget wraps ErrNoFailure.
// With an uncancelled context, Found, Schedule and Tries are
// bit-identical for any Workers setting.
func (p *Pipeline) RunContext(ctx context.Context) (*Report, error) {
	rep := &Report{}
	fail, err := p.ProvokeFailureContext(ctx)
	if err != nil {
		rep.Partial = errors.Is(err, ErrCancelled)
		return rep, err
	}
	rep.Failure = fail
	a := p.NewAnalysis(fail)
	if err := a.ThroughContext(ctx, StageCandidates); err != nil {
		rep.Analysis = a.Report
		rep.Partial = errors.Is(err, ErrCancelled)
		return rep, err
	}
	rep.Analysis = a.Report
	res, err := p.ReproduceContext(ctx, fail, a.Report)
	rep.Search = res
	if err != nil {
		rep.Partial = true
		return rep, err
	}
	if !res.Found {
		return rep, fmt.Errorf("core: %w after %d tries", ErrScheduleNotFound, res.Tries)
	}
	return rep, nil
}
