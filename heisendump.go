// Package heisendump reproduces concurrency Heisenbugs from multicore
// core dumps, implementing Weeratunge, Zhang & Jagannathan, "Analyzing
// Multicore Dumps to Facilitate Concurrency Bug Reproduction"
// (ASPLOS 2010).
//
// Given a failure core dump from a concurrent run — no logging, no
// hardware support, only negligible loop-counter instrumentation — the
// pipeline:
//
//  1. reverse engineers the failure point's execution index from the
//     dump (program counter, calling context, live loop counters and
//     static control dependences),
//  2. re-executes the program deterministically on one core and uses
//     the index to find the aligned point — the exact or closest
//     counterpart of the failure point,
//  3. captures a core dump there and diffs it against the failure dump
//     by reference-path traversal, yielding the critical shared
//     variables (CSVs) whose values the schedule difference changed,
//  4. prioritizes CSV accesses by temporal or dependence (dynamic
//     slicing) distance, and
//  5. searches for a failure-inducing schedule with a CHESS-style
//     preemption search whose combinations are weighted by CSV-access
//     priority and whose thread choices are guided by future CSV sets.
//
// Subject programs are written in a small C-like concurrent language
// (package lang) and executed by a deterministic interpreter whose
// scheduling the library fully controls — the substrate standing in
// for the paper's pthreads/multicore environment.
//
// # Quick start
//
//	w := heisendump.WorkloadByName("fig1")
//	s, err := heisendump.New(w.Source, w.Input, // compiles via the shared program cache
//		heisendump.WithWorkers(0), // search pool width; 0 = GOMAXPROCS, any value same result
//	)
//	rep, err := s.Reproduce(ctx)
//	// rep.Search.Found, rep.Search.Schedule: the failure-inducing schedule
//
// Sessions are shareable-by-default: New compiles through a
// process-wide cache keyed by source hash, so every Session over the
// same source shares one immutable compiled program (bytecode
// included) while each run gets its own machine pool — one process
// can grind thousands of concurrent reproductions of a hot program
// that was compiled exactly once. Callers holding a compiled *Program
// (e.g. from Compile or Workload.Compile) use NewCompiled.
//
// Session.Reproduce threads its context through every phase — cancel
// it (or give it a deadline) and the run stops within one schedule
// trial, returning the best-so-far partial Report (Report.Partial)
// with an error wrapping ErrCancelled. WithObserver subscribes to the
// run's one event stream — stage spans, trials and search heartbeats —
// which the Tracer and the FlightRecorder consume as well. The
// schedule search runs WithWorkers trials concurrently with a
// deterministic rank-order reduction — the knob changes only the cost
// of the search, never its result.
//
// Every execution — the stress runs, the alignment re-run, the
// aligned-point dump and each schedule trial — runs on one
// interpreter: a dispatch loop over the bytecode Compile attaches to
// every Program.
//
// See the examples/ directory for complete programs, and the runnable
// godoc examples in example_test.go.
package heisendump

import (
	"io"
	"time"

	"heisendump/internal/chess"
	"heisendump/internal/core"
	"heisendump/internal/coredump"
	"heisendump/internal/ctrldep"
	"heisendump/internal/index"
	"heisendump/internal/instrument"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/progcache"
	"heisendump/internal/slicing"
	"heisendump/internal/statics"
	"heisendump/internal/telemetry"
	"heisendump/internal/workloads"
)

// Report is a completed reproduction: failure, analysis, search. A
// cancelled run returns a Report with Partial set, carrying the
// best-so-far artifacts of the phases that completed.
type Report = core.Report

// Observer consumes a run's event stream. Attach one with
// WithObserver; ObserverFunc adapts a plain function.
type Observer = telemetry.Observer

// ObserverFunc adapts a function to Observer.
type ObserverFunc = telemetry.ObserverFunc

// Event is one entry of a run's event stream: a stage begin or end, or
// a fold heartbeat. Stage events arrive on the run's goroutine, a
// begin and an end with the same Span for each of the seven stages
// (provoke, align, aligned-dump, diff, prioritize, candidates,
// search); fold heartbeats arrive serialized, one per worklist rank
// the search commits, in rank order and carrying that rank's summary
// in Rank, then one whose Progress.Done is set. docs/OBSERVABILITY.md
// has the full contract.
type Event = telemetry.Event

// EventKind says what an Event reports.
type EventKind = telemetry.Kind

// Event kinds.
const (
	EventStageBegin = telemetry.KindStageBegin
	EventStageEnd   = telemetry.KindStageEnd
	EventFold       = telemetry.KindFold
)

// SearchProgress is one schedule-search heartbeat snapshot, the
// payload of an EventFold.
type SearchProgress = telemetry.Progress

// Tracer is an Observer that records stage spans and the search's
// committed ranks, exportable as Chrome trace-event JSON.
type Tracer = telemetry.Tracer

// NewTracer builds a Tracer. clock supplies event timestamps (nil
// uses a synthetic monotone tick, which keeps traces deterministic).
func NewTracer(clock func() time.Time) *Tracer {
	return telemetry.NewTracer(clock)
}

// FlightRecorder is an Observer that keeps a bounded ring of the
// search's recent fold events, one per committed rank; snapshot it
// after a failed or cancelled run.
type FlightRecorder = telemetry.FlightRecorder

// FlightLog is a FlightRecorder snapshot: the retained committed ranks
// and fold decisions (oldest first) plus the count of older fold
// events dropped.
type FlightLog = telemetry.FlightLog

// NewFlightRecorder builds a FlightRecorder retaining the last n fold
// events (n <= 0 uses a default of 64).
func NewFlightRecorder(n int) *FlightRecorder {
	return telemetry.NewFlightRecorder(n)
}

// MetricsSnapshot returns the process-wide telemetry registry as a
// flat series-name -> value map (histograms contribute _sum/_count).
// The batch server folds this into /v1/stats and serves the same
// registry as Prometheus text on GET /metrics.
func MetricsSnapshot() map[string]int64 { return telemetry.Default().Snapshot() }

// WriteMetrics writes the process-wide telemetry registry in
// Prometheus text exposition format (version 0.0.4).
func WriteMetrics(w io.Writer) error { return telemetry.Default().WritePrometheus(w) }

// Sentinel errors, usable with errors.Is against any error a Session
// returns.
var (
	// ErrNoFailure: stress testing exhausted its budget without
	// provoking a failure.
	ErrNoFailure = core.ErrNoFailure
	// ErrScheduleNotFound: the schedule search completed without
	// constructing a failure-inducing schedule.
	ErrScheduleNotFound = core.ErrScheduleNotFound
	// ErrCancelled: the run was cut short by its context. Errors
	// wrapping it also wrap the context's error (context.Canceled or
	// context.DeadlineExceeded).
	ErrCancelled = core.ErrCancelled
)

// SourceError is a typed subject-program rejection: anything Parse or
// the static checker refuses (Phase "parse" or "check", with a
// best-effort source line). It is JSON-serializable, and — with
// *InputError — is what service layers should classify as the
// client's fault (HTTP 400) rather than an internal failure.
type SourceError = lang.Error

// InputError is a typed input/declaration mismatch: a seeded input
// naming an undeclared global, seeding a pointer, or an array seed
// whose length disagrees with the declared size. New reports it at
// construction; NewCompiled surfaces it on the first run.
type InputError = interp.InputError

// FailureReport describes the provoked failure and its core dump.
type FailureReport = core.FailureReport

// AnalysisReport carries aligned point, dump diff, CSVs and costs.
type AnalysisReport = core.AnalysisReport

// Analysis is a stage-structured analysis run; it exposes the
// pipeline's debugging phases individually so intermediate artifacts
// (alignment, dump diff) can be reused across configurations.
type Analysis = core.Analysis

// Stage identifies one phase of the analysis.
type Stage = core.Stage

// Analysis stages, in execution order.
const (
	StageAlign       = core.StageAlign
	StageAlignedDump = core.StageAlignedDump
	StageDiff        = core.StageDiff
	StagePrioritize  = core.StagePrioritize
	StageCandidates  = core.StageCandidates
)

// AlignmentMethod selects execution-index or instruction-count
// alignment.
type AlignmentMethod = core.AlignmentMethod

// Alignment methods.
const (
	AlignByIndex            = core.AlignByIndex
	AlignByInstructionCount = core.AlignByInstructionCount
)

// Heuristic selects the CSV-access prioritization strategy.
type Heuristic = slicing.Heuristic

// Prioritization heuristics.
const (
	Temporal   = slicing.Temporal
	Dependence = slicing.Dependence
)

// Workload is a subject program with its failure-inducing input.
type Workload = workloads.Workload

// Program is a compiled subject program.
type Program = ir.Program

// Input is a program's initial shared state.
type Input = interp.Input

// Dump is a core dump.
type Dump = coredump.Dump

// Index is an execution index.
type Index = index.Index

// SearchResult is the schedule-search outcome.
type SearchResult = chess.Result

// Overhead is an instrumentation-overhead measurement.
type Overhead = instrument.Overhead

// Parse parses a subject program in the mini language.
func Parse(src string) (*lang.Program, error) { return lang.Parse(src) }

// Compile parses, checks and compiles a subject program with
// loop-counter instrumentation (required for index reverse engineering
// of while loops; costs ~1-2% at run time), consulting the
// process-wide shared program cache: the same source compiles once and
// every caller shares the immutable *Program (bytecode included), so
// any number of concurrent Sessions can grind one hot program. Bad
// programs come back as a typed *SourceError.
func Compile(source string) (*Program, error) {
	prog, _, err := progcache.Shared().Get(source, true)
	return prog, err
}

// CompileAST lowers an already-parsed program, optionally adding
// loop-counter instrumentation. AST identity does not key the shared
// cache, so this path compiles every call; prefer Compile.
func CompileAST(p *lang.Program, instrumentLoops bool) (*Program, error) {
	return ir.Compile(p, ir.Options{InstrumentLoops: instrumentLoops})
}

// CompileSource is Compile with explicit instrumentation control; it
// shares the same process-wide cache (the flag is part of the key).
func CompileSource(src string, instrumentLoops bool) (*Program, error) {
	prog, _, err := progcache.Shared().Get(src, instrumentLoops)
	return prog, err
}

// ValidateInput checks a seeded input against the program's
// declarations without running it: unknown globals, pointer seeds and
// array-length mismatches come back as a typed *InputError. New runs
// the same validation; service layers call it directly to reject bad
// submissions at admission.
func ValidateInput(prog *Program, input *Input) error {
	return interp.ValidateInput(prog, input)
}

// CacheStats is a snapshot of the shared compile cache's counters.
type CacheStats = progcache.Stats

// CompileCacheStats reports the shared compile cache's effectiveness:
// how many compilations were deduplicated into cache hits, and the
// resident entry count. The batch server exposes this on /v1/stats.
func CompileCacheStats() CacheStats { return progcache.Shared().Stats() }

// StaticReport is the static concurrency analyzer's typed result:
// race candidates (shared accesses on concurrent threads with
// disjoint must-held locksets, at least one write) and deadlock
// candidates (static lock-order cycles), each with source-line,
// variable and lockset witnesses.
type StaticReport = statics.Report

// Analyze runs the static concurrency analyzer over a compiled
// program: a whole-program must-held lockset dataflow plus a static
// thread-structure pass, reporting race and deadlock candidates
// before any trial executes. Results are memoized per *Program
// (programs are immutable and shared through the compile cache), so
// the batch server and the search guidance (WithStaticFocus) consult
// one analysis at zero marginal cost; treat the report as read-only.
// See docs/ANALYSIS.md for the algorithm and its soundness caveats.
func Analyze(prog *Program) *StaticReport { return statics.Analyze(prog) }

// WorkloadByName returns a registered workload ("fig1", "apache-1",
// "mysql-3", "splash-fft", ...) or nil.
func WorkloadByName(name string) *Workload { return workloads.ByName(name) }

// WorkloadNames lists the registered workloads.
func WorkloadNames() []string { return workloads.Names() }

// Bugs returns the seven Table 2 bug workloads in the paper's order.
func Bugs() []*Workload { return workloads.Bugs() }

// SplashKernels returns the Fig. 10 overhead-measurement kernels.
func SplashKernels() []*Workload { return workloads.SplashKernels() }

// GeneratedWorkloads returns the curated generator-derived bug
// workloads (internal/gen): machine-manufactured concurrency bugs with
// known ground truth, continuously re-validated by cmd/fuzz's
// differential oracle. They appear in the experiment tables via
// cmd/benchtab -generated.
func GeneratedWorkloads() []*Workload { return workloads.Generated() }

// MeasureOverhead measures the loop-counter instrumentation overhead
// of a workload on a single deterministic core (Fig. 10). Both
// compilations go through Workload.Compile — the same compile path as
// the rest of the facade — so workload compile options are never
// silently dropped.
func MeasureOverhead(w *Workload, reps int) (*Overhead, error) {
	base, err := w.Compile(false)
	if err != nil {
		return nil, err
	}
	instr, err := w.Compile(true)
	if err != nil {
		return nil, err
	}
	return instrument.MeasureCompiled(w.Name, base, instr, w.Input, reps)
}

// ReverseIndex reverse engineers the failure index from a core dump
// (Algorithm 1).
func ReverseIndex(prog *Program, dump *Dump) (*Index, error) {
	return index.Reverse(prog, ctrldep.AnalyzeProgram(prog), dump)
}

// CompareDumps diffs two core dumps by reference-path traversal; the
// shared differences are the critical shared variables.
func CompareDumps(failing, passing *Dump) *coredump.DiffResult {
	return coredump.Compare(failing, passing)
}

// AnonymizeDump tokenizes a dump's values while preserving equality
// (the paper's §7 privacy mitigation): dumps anonymized with the same
// salt still yield the same critical shared variables under
// CompareDumps, and the failure index stays recoverable because loop
// counters are preserved.
func AnonymizeDump(d *Dump, prog *Program, salt uint64) *Dump {
	return d.Anonymize(salt, coredump.KeepLoopCounters(prog))
}
