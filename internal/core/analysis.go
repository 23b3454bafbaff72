package core

import (
	"context"
	"fmt"
	"time"

	"heisendump/internal/chess"
	"heisendump/internal/coredump"
	"heisendump/internal/index"
	"heisendump/internal/interp"
	"heisendump/internal/sched"
	"heisendump/internal/slicing"
	"heisendump/internal/trace"
)

// Stage identifies one phase of the debugging-side analysis. Stages
// run strictly in order; Analysis.ThroughContext runs everything up to
// and including its argument, so callers can stop early or reuse the
// artifacts of completed stages — e.g. re-prioritize the CSV accesses
// under a different heuristic without repeating the expensive
// alignment re-execution.
type Stage int

const (
	// StageAlign reverse engineers the failure index (under
	// execution-index alignment), records the passing-run trace of a
	// deterministic re-run and locates the aligned point in it.
	StageAlign Stage = iota
	// StageAlignedDump replays deterministically to the aligned point
	// and captures the passing-side core dump there.
	StageAlignedDump
	// StageDiff compares the failure and aligned dumps; the shared
	// differences are the critical shared variables.
	StageDiff
	// StagePrioritize orders the CSV accesses of the passing run by
	// the configured heuristic (temporal or dependence distance).
	StagePrioritize
	// StageCandidates discovers the preemption candidates and attaches
	// Algorithm 2's block-access and future-CSV-set annotations.
	StageCandidates
)

// String names the stage for reports.
func (s Stage) String() string {
	switch s {
	case StageAlign:
		return "align"
	case StageAlignedDump:
		return "aligned-dump"
	case StageDiff:
		return "diff"
	case StagePrioritize:
		return "prioritize"
	case StageCandidates:
		return "candidates"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Analysis is a stage-structured analysis of one provoked failure. It
// carries the intermediate artifacts (most importantly the recorded
// passing-run trace) between stages, which Analyze's one-shot API
// discards.
type Analysis struct {
	// Pipe is the owning pipeline.
	Pipe *Pipeline
	// Fail is the failure under analysis.
	Fail *FailureReport
	// Report accumulates the artifacts and costs of completed stages.
	Report *AnalysisReport
	// Trace is the recorded passing-run trace (set by StageAlign).
	Trace *trace.Recorder

	// m is the alignment re-run's machine, which StageAlignedDump
	// rewinds for its replay and then drops.
	m    *interp.Machine
	next Stage
}

// NewAnalysis starts a stage-structured analysis of the failure. Run
// stages with ThroughContext; AnalyzeContext is the one-shot
// equivalent.
func (p *Pipeline) NewAnalysis(fail *FailureReport) *Analysis {
	rep := &AnalysisReport{}
	if t := fail.Dump.Thread(fail.Dump.FailingThread); t != nil {
		rep.ThreadSteps = t.Steps
	}
	return &Analysis{Pipe: p, Fail: fail, Report: rep}
}

// ThroughContext runs every not-yet-run stage up to and including
// last; already-completed stages are not repeated. It checks the
// context before each stage (and polls it inside the long
// deterministic re-executions of StageAlign and StageAlignedDump) and
// brackets each stage with begin and end events to the pipeline's
// observers. On cancellation it returns an
// error wrapping ErrCancelled; the artifacts of completed stages
// remain in a.Report, and a later call resumes at the first
// unfinished stage — this is what makes an analysis resumable across
// cancelled runs.
func (a *Analysis) ThroughContext(ctx context.Context, last Stage) error {
	if err := a.Pipe.inputErr; err != nil {
		// Every analysis stage re-executes on machines seeded from the
		// pipeline's input; an input that disagrees with the program's
		// declarations would diverge silently from the dump.
		return err
	}
	for a.next <= last {
		if err := ctx.Err(); err != nil {
			return Cancelled(err)
		}
		end := a.Pipe.stage(a.next.String())
		err := a.runStage(ctx, a.next)
		end()
		if err != nil {
			return err
		}
		a.next++
	}
	return nil
}

// Reprioritize re-runs the prioritization and candidate stages under a
// different heuristic, reusing the alignment, dump and diff artifacts
// of the earlier stages (running them first, under ctx, if needed).
// Experiments that compare heuristics on one bug use this to amortize
// the re-execution cost across configurations.
func (a *Analysis) Reprioritize(ctx context.Context, h slicing.Heuristic) error {
	if err := a.ThroughContext(ctx, StageDiff); err != nil {
		return err
	}
	a.prioritize(h)
	a.candidates()
	a.next = StageCandidates + 1
	return nil
}

func (a *Analysis) runStage(ctx context.Context, s Stage) error {
	switch s {
	case StageAlign:
		return a.align(ctx)
	case StageAlignedDump:
		return a.alignedDump(ctx)
	case StageDiff:
		a.diff()
		return nil
	case StagePrioritize:
		a.prioritize(a.Pipe.Cfg.Heuristic)
		return nil
	case StageCandidates:
		a.candidates()
		return nil
	}
	return fmt.Errorf("core: unknown analysis stage %v", s)
}

// align records the trace of a deterministic re-run and, once the run
// ends, locates the aligned point in it. Under execution-index
// alignment it first reverse engineers the failure index from the dump
// (Algorithm 1). The re-run polls ctx, so a cancelled context stops
// the alignment mid-execution.
func (a *Analysis) align(ctx context.Context) error {
	p, rep := a.Pipe, a.Report

	start := time.Now()
	var fidx *index.Index
	switch p.Cfg.Alignment {
	case AlignByIndex:
		t0 := time.Now()
		var err error
		fidx, err = index.Reverse(p.Prog, p.PDeps, a.Fail.Dump)
		if err != nil {
			return fmt.Errorf("core: reverse engineering failure index: %w", err)
		}
		rep.ReverseTime = time.Since(t0)
		rep.FailureIndex = fidx
		rep.IndexLen = fidx.Len()
	case AlignByInstructionCount:
	default:
		return fmt.Errorf("core: unknown alignment method %v", p.Cfg.Alignment)
	}

	rec := trace.NewRecorder()
	a.Trace = rec
	m := p.NewMachine()
	m.Hooks = rec
	res := sched.Runner{Ctx: ctx}.Run(m, sched.NewCooperative())
	if res.Cancelled {
		return Cancelled(ctx.Err())
	}
	rep.PassingSteps = res.Steps
	a.m = m

	var al index.Alignment
	if p.Cfg.Alignment == AlignByIndex {
		al = index.Align(p.Prog, p.PDeps, fidx, rec.Events)
	} else {
		al = alignByCount(rec.Events, a.Fail.Dump.FailingThread, rep.ThreadSteps, a.Fail.Dump.PC)
	}
	rep.AlignKind, rep.AlignSteps, rep.AlignPC = al.Kind, al.Steps, al.PC
	rep.AlignTime = time.Since(start)

	if rep.AlignKind == index.AlignNone {
		return fmt.Errorf("core: no aligned point found in passing run")
	}
	return nil
}

// alignedDump replays deterministically to the aligned point and
// captures the dump there.
func (a *Analysis) alignedDump(ctx context.Context) error {
	p, rep := a.Pipe, a.Report
	t0 := time.Now()
	// The alignment re-run's machine, rewound. The analysis keeps it
	// until the capture, so a cancelled replay resumes on it.
	m := a.m
	m.Hooks = nil
	m.Reset(p.Prog, m.SeedInput())
	// BoundedRunContext, not a bare Runner: an aligned point at step 0
	// must capture the initial state, and BoundedRunContext runs
	// nothing for a non-positive bound where Runner{MaxSteps: 0} would
	// run forever.
	res := sched.BoundedRunContext(ctx, m, sched.NewCooperative(), rep.AlignSteps)
	if res.Cancelled {
		return Cancelled(ctx.Err())
	}
	rep.AlignedDump = coredump.Capture(m, a.Fail.Dump.FailingThread, rep.AlignPC, "aligned point")
	a.m = nil
	var err error
	rep.AlignedDumpBytes, err = rep.AlignedDump.Size()
	if err != nil {
		return err
	}
	rep.DumpTime = time.Since(t0)
	return nil
}

// diff compares the dumps; shared differences are the CSVs.
func (a *Analysis) diff() {
	rep := a.Report
	t0 := time.Now()
	rep.Diff = coredump.Compare(a.Fail.Dump, rep.AlignedDump)
	rep.CSVs = rep.Diff.CSVs()
	rep.DiffTime = time.Since(t0)
}

// prioritize orders the CSV accesses of the passing run by h.
func (a *Analysis) prioritize(h slicing.Heuristic) {
	p, rep := a.Pipe, a.Report
	// The CSVs are named in the aligned dump's terms and the trace
	// knows them by slot ids; a name the program lacks (no dump of its
	// runs has one) keeps its CSV index with an identity no run reports.
	csvVars := make([]interp.VarID, len(rep.CSVs))
	for i, c := range rep.CSVs {
		if id, ok := c.BVar.ID(p.Prog); ok {
			csvVars[i] = id
		} else {
			csvVars[i] = interp.VarID{Kind: interp.VGlobal, Slot: -1}
		}
	}
	criterionStep := rep.AlignSteps
	if rep.AlignKind == index.AlignClosest && criterionStep > 0 {
		criterionStep-- // the divergent branch itself
	}
	t0 := time.Now()
	var sl *slicing.Slice
	if h == slicing.Dependence {
		sl = slicing.Compute(p.Prog, p.PDeps, a.Trace, criterionStep)
	}
	rep.Accesses = slicing.CollectAccesses(a.Trace, csvVars, criterionStep, h, sl)
	rep.SliceTime = time.Since(t0)
}

// candidates discovers and annotates the preemption candidates.
func (a *Analysis) candidates() {
	rep := a.Report
	cands := chess.DiscoverCandidates(a.Pipe.Prog, a.Trace.Events)
	chess.Annotate(cands, rep.Accesses)
	rep.Candidates = cands
}
