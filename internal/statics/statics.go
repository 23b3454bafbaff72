// Package statics is the whole-program static concurrency analyzer:
// a classic lockset analysis (in the RacerX / Chord lineage) over the
// compiled ir.Program, reusing the same control-flow graphs the
// control-dependence passes build.
//
// The pipeline discovers concurrency bugs dynamically — provoke a
// crash, align its dump, search schedules. This package flags the two
// canonical static symptoms before any trial executes:
//
//   - race candidates: two accesses to one shared location, on
//     threads that can run concurrently, with disjoint must-held
//     locksets, at least one of them a write;
//   - deadlock candidates: cycles in the static lock-order graph
//     (lock B acquired while A is held on one path, A while B on
//     another).
//
// The analysis is a forward dataflow of must-held locksets over each
// function's cfg.Graph (meet = intersection), made whole-program by
// call-graph summaries and an entry-lockset fixpoint, plus a static
// thread-structure pass that classifies every global/array/field
// access as thread-shared or thread-local from the spawn sites alone.
// Soundness is one-directional by design: held locksets are
// under-approximated (a lock counts only when held on every path), so
// a real race is never hidden by an optimistic lockset — the price is
// false positives on benign races, which the gen corpus measures and
// pins as a ceiling. See docs/ANALYSIS.md for the algorithm and its
// caveats.
//
// The report feeds three consumers: the schedule search (a racy-
// variable focus set boosts preemption combinations that touch
// flagged pairs — chess.Options.Static), the service surface
// (heisendump.Analyze, dumptool -analyze, POST /v1/analyze), and the
// generative oracle's recall gate (every injected bug pattern must be
// flagged).
package statics

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"weak"

	"heisendump/internal/ir"
	"heisendump/internal/telemetry"
)

// LocKind classifies a shared location.
type LocKind string

const (
	// LocScalar is a global scalar (including pointer globals).
	LocScalar LocKind = "scalar"
	// LocArray is a global array, index-insensitive except for
	// provably-distinct constant indices.
	LocArray LocKind = "array"
	// LocField is a heap object field, keyed by field name across all
	// objects (objects are not distinguished statically).
	LocField LocKind = "field"
)

// Site is one static access (or acquisition) site, with its witness:
// where it is, what it holds, and which static threads reach it.
type Site struct {
	// Func is the containing function.
	Func string `json:"func"`
	// PC addresses the instruction.
	PC ir.PC `json:"pc"`
	// Line is the source line.
	Line int `json:"line"`
	// Write is true for a store.
	Write bool `json:"write"`
	// Lockset names the locks held on every path to the site (the
	// must-held witness; empty means provably lock-free on some path).
	Lockset []string `json:"lockset"`
	// Roots names the static thread roots (spawned functions, or
	// "main") whose call closure reaches the site.
	Roots []string `json:"roots"`
}

// Race is one race candidate: a pair of conflicting sites.
type Race struct {
	// Var is the shared location's base name (global, array or field
	// name) — the name CSV access annotations carry, which is what lets
	// the schedule search match candidates against the report.
	Var string `json:"var"`
	// Kind classifies the location.
	Kind LocKind `json:"kind"`
	// A and B are the conflicting sites; at least one writes. Ordered
	// deterministically (A ≤ B by function/pc).
	A Site `json:"a"`
	B Site `json:"b"`
}

// LockEdge is one static lock-order edge: To was acquired while From
// was held.
type LockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Func/Line witness the acquisition site.
	Func string `json:"func"`
	Line int    `json:"line"`
	// Roots names the thread roots reaching the acquisition.
	Roots []string `json:"roots"`
}

// Deadlock is one deadlock candidate: a strongly-connected component
// of the lock-order graph (a cycle; a single lock re-acquired while
// held reports as a one-lock cycle).
type Deadlock struct {
	// Locks are the cycle's locks, sorted.
	Locks []string `json:"locks"`
	// Edges are the order edges inside the cycle, each with its
	// acquisition witness.
	Edges []LockEdge `json:"edges"`
}

// Stats summarizes the analysis for reports and /v1/stats consumers.
type Stats struct {
	// Funcs is the program's function count; Reachable counts those
	// reachable from main or a spawn site (only they are analyzed).
	Funcs     int `json:"funcs"`
	Reachable int `json:"reachable"`
	// Roots is the static thread-root count (main + distinct spawned
	// functions); MultiRoots counts roots with more than one static
	// instance (several spawn sites, or a spawn inside a loop).
	Roots      int `json:"roots"`
	MultiRoots int `json:"multi_roots"`
	// SharedLocations counts locations accessed by ≥ 2 concurrent
	// static threads; Accesses counts every shared-location access
	// analyzed.
	SharedLocations int `json:"shared_locations"`
	Accesses        int `json:"accesses"`
	// LocksTotal is the program's lock count; LocksTracked how many the
	// 64-lock dataflow bitset covers (excess locks are treated as never
	// held — recall-safe, precision-lossy).
	LocksTotal   int `json:"locks_total"`
	LocksTracked int `json:"locks_tracked"`
	// RacePairsTruncated is true when a location's candidate pair list
	// hit the per-location cap (see maxPairsPerLocation).
	RacePairsTruncated bool `json:"race_pairs_truncated,omitempty"`
}

// Report is the analyzer's typed result. It is deterministic: the
// same program yields a byte-identical rendering on every run.
type Report struct {
	// Program is the analyzed program's name.
	Program string `json:"program"`
	// Races are the race candidates, sorted by (kind, var, sites).
	Races []Race `json:"races"`
	// Deadlocks are the lock-order cycles, sorted by lock names.
	Deadlocks []Deadlock `json:"deadlocks"`
	Stats     Stats      `json:"stats"`
}

// FocusSet returns the racy base names — one entry per distinct Race
// variable — in the form the schedule search's static guidance
// consumes (chess.Options.Static): membership of a CSV access's base
// name marks a candidate's block as touching a flagged pair.
func (r *Report) FocusSet() map[string]bool {
	if len(r.Races) == 0 {
		return nil
	}
	out := make(map[string]bool, len(r.Races))
	for _, rc := range r.Races {
		out[rc.Var] = true
	}
	return out
}

// String renders the report as the text the CLI prints.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "static analysis of %s: %d race candidate(s), %d deadlock candidate(s)\n",
		r.Program, len(r.Races), len(r.Deadlocks))
	fmt.Fprintf(&sb, "  %d/%d functions reachable, %d thread root(s) (%d multi-instance), %d shared location(s), %d access(es)\n",
		r.Stats.Reachable, r.Stats.Funcs, r.Stats.Roots, r.Stats.MultiRoots,
		r.Stats.SharedLocations, r.Stats.Accesses)
	for _, rc := range r.Races {
		fmt.Fprintf(&sb, "race on %s %s:\n  %s\n  %s\n", rc.Kind, rc.Var, siteLine(rc.A), siteLine(rc.B))
	}
	for _, d := range r.Deadlocks {
		fmt.Fprintf(&sb, "lock-order cycle {%s}:\n", strings.Join(d.Locks, ", "))
		for _, e := range d.Edges {
			fmt.Fprintf(&sb, "  %s -> %s at %s (line %d)\n", e.From, e.To, e.Func, e.Line)
		}
	}
	return sb.String()
}

func siteLine(s Site) string {
	op := "read"
	if s.Write {
		op = "write"
	}
	held := "{}"
	if len(s.Lockset) > 0 {
		held = "{" + strings.Join(s.Lockset, ",") + "}"
	}
	return fmt.Sprintf("%-5s at %s (line %d) holding %s on %s", op, s.Func, s.Line, held, strings.Join(s.Roots, "+"))
}

// cache memoizes Analyze per compiled program. Programs are immutable
// and typically shared through the compile cache, so the pointer is a
// sound identity key; the report is a pure function of the program,
// making a racy double-compute harmless. The key is a weak pointer and
// a cleanup deletes the entry once the program is collected, so the
// memo lives exactly as long as its programs (a Report holds no
// pointer back to its program, which would keep it alive).
var cache sync.Map // weak.Pointer[ir.Program] -> *Report

// Analyze runs the whole-program analysis. It only reads the
// immutable compiled program, so any number of concurrent callers may
// share one *ir.Program; the result is a pure function of it, and is
// memoized per program pointer — the search guidance and the batch
// server's /v1/analyze consult one analysis at zero marginal cost.
// Callers must treat the returned report as immutable.
func Analyze(prog *ir.Program) *Report {
	key := weak.Make(prog)
	if r, ok := cache.Load(key); ok {
		return r.(*Report)
	}
	rep := analyze(prog)
	telemetry.StaticsAnalyses.Inc()
	telemetry.StaticsRaceCandidates.Add(int64(len(rep.Races)))
	telemetry.StaticsDeadlockCandidates.Add(int64(len(rep.Deadlocks)))
	if prev, loaded := cache.LoadOrStore(key, rep); loaded {
		return prev.(*Report)
	}
	runtime.AddCleanup(prog, forget, key)
	return rep
}

// forget drops a collected program's memo entry.
func forget(key weak.Pointer[ir.Program]) { cache.Delete(key) }

func analyze(prog *ir.Program) *Report {
	a := newAnalysis(prog)
	a.buildThreads()
	a.solveLocksets()
	a.collectAccesses()
	rep := &Report{
		Program:   prog.Name,
		Races:     a.races(),
		Deadlocks: a.deadlocks(),
	}
	rep.Stats = a.stats
	return rep
}
