// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design decisions DESIGN.md calls
// out. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports experiment-specific metrics alongside the
// usual timing; cmd/benchtab prints the same rows as tables.
package heisendump_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"heisendump"
	"heisendump/internal/chess"
	"heisendump/internal/core"
	"heisendump/internal/experiments"
	"heisendump/internal/interp"
	"heisendump/internal/sched"
	"heisendump/internal/trace"
	"heisendump/internal/workloads"
)

// BenchmarkTable1CDClassification regenerates Table 1: control-
// dependence classification over the three synthetic corpora.
func BenchmarkTable1CDClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: one=%.2f%% aggr=%.2f%% nonaggr=%.2f%% loop=%.2f%% (n=%d)",
					r.Benchmark, r.OneCD, r.AggrToOne, r.NotAggr, r.Loop, r.Total)
			}
		}
	}
}

// BenchmarkTable2Workloads regenerates Table 2: the studied bugs.
func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s id=%s %s steps=%d threads=%d", r.Name, r.BugID, r.Kind, r.Steps, r.Threads)
			}
		}
	}
}

// BenchmarkTable3DumpAnalysis regenerates Table 3: dump sizes,
// compared variables, CSVs and index lengths per bug.
func BenchmarkTable3DumpAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: dumps=%d/%dB vars=%d/%d shared=%d/%d len(idx)=%d align=%v",
					r.Name, r.FailDumpBytes, r.PassDumpBytes, r.VarsCompared, r.Diffs,
					r.SharedCompared, r.CSVs, r.IndexLen, r.AlignKind)
			}
		}
	}
}

// BenchmarkTable4ScheduleSearch regenerates Table 4: chess vs
// chessX+dep vs chessX+temporal tries and times.
func BenchmarkTable4ScheduleSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(context.Background(), 1000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: chess=%d(found=%v) dep=%d temporal=%d",
					r.Name, r.ChessTries, r.ChessFound, r.DepTries, r.TempTries)
			}
		}
	}
}

// BenchmarkTable5InstructionCount regenerates Table 5: the
// instruction-count alignment baseline.
func BenchmarkTable5InstructionCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(context.Background(), 1000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: instrs=%d shared=%d/%d tries=%d repro=%v",
					r.Name, r.ThreadInstrs, r.SharedCompared, r.CSVs, r.Tries, r.Reproduced)
			}
		}
	}
}

// BenchmarkTable6OtherCosts regenerates Table 6: one-time analysis
// costs (dump capture, diff, slicing).
func BenchmarkTable6OtherCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: dump=%v diff=%v slice=%v reverse=%v align=%v",
					r.Name, r.DumpCapture, r.DumpDiff, r.Slicing, r.Reverse, r.Align)
			}
		}
	}
}

// BenchmarkFig10Overhead regenerates Fig. 10: loop-counter
// instrumentation overhead across the workloads and splash kernels.
func BenchmarkFig10Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(context.Background(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sum float64
			for _, r := range rows {
				sum += r.Percent
			}
			b.Logf("average overhead %.2f%% over %d programs", sum/float64(len(rows)), len(rows))
		}
	}
}

// runSearch is a helper for the ablation benches: a full Session
// reproduction of one workload under the given options, reporting
// tries (a search cut off by its budget is not an error here).
func runSearch(b *testing.B, w *workloads.Workload, opts ...heisendump.Option) int {
	b.Helper()
	prog, err := w.Compile(true)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := heisendump.NewCompiled(prog, w.Input, opts...).Reproduce(context.Background())
	if err != nil && !errors.Is(err, heisendump.ErrScheduleNotFound) {
		b.Fatal(err)
	}
	return rep.Search.Tries
}

// BenchmarkAblationAlignment (DESIGN.md D1) compares execution-index
// alignment against the instruction-count baseline on apache-1.
func BenchmarkAblationAlignment(b *testing.B) {
	w := workloads.Apache1
	for i := 0; i < b.N; i++ {
		ei := runSearch(b, w, heisendump.WithTrialBudget(2000))
		ic := runSearch(b, w, heisendump.WithTrialBudget(2000), heisendump.WithAlignment(heisendump.AlignByInstructionCount))
		if i == 0 {
			b.Logf("apache-1 tries: execution-index=%d instruction-count=%d", ei, ic)
		}
	}
}

// BenchmarkAblationPriority (D2) compares temporal vs dependence
// prioritization across the bug suite.
func BenchmarkAblationPriority(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var tTemp, tDep int
		for _, w := range workloads.Bugs() {
			tTemp += runSearch(b, w, heisendump.WithHeuristic(heisendump.Temporal), heisendump.WithTrialBudget(2000))
			tDep += runSearch(b, w, heisendump.WithHeuristic(heisendump.Dependence), heisendump.WithTrialBudget(2000))
		}
		if i == 0 {
			b.Logf("total tries: temporal=%d dependence=%d", tTemp, tDep)
		}
	}
}

// BenchmarkAblationThreadSelect (D3) disables the guided thread
// selection while keeping combination weighting, isolating the value
// of Algorithm 2's preempt() test. Implemented via the chess options:
// plain CHESS = unweighted+unguided; this ablation = weighted only.
func BenchmarkAblationThreadSelect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var full, noGuide int
		for _, w := range workloads.Bugs() {
			prog, err := w.Compile(true)
			if err != nil {
				b.Fatal(err)
			}
			p := core.NewPipeline(prog, w.Input, core.Config{MaxTries: 2000})
			fail, err := p.ProvokeFailureContext(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			an, err := p.AnalyzeContext(context.Background(), fail)
			if err != nil {
				b.Fatal(err)
			}
			full += p.Searcher(fail, an).SearchContext(context.Background()).Tries

			s := p.Searcher(fail, an)
			s.Opts.Guided = false
			noGuide += s.SearchContext(context.Background()).Tries
		}
		if i == 0 {
			b.Logf("total tries: guided=%d unguided=%d", full, noGuide)
		}
	}
}

// BenchmarkAblationPreemptionBound (D4) sweeps the preemption bound k.
func BenchmarkAblationPreemptionBound(b *testing.B) {
	w := workloads.Apache2 // needs two preemptions
	for i := 0; i < b.N; i++ {
		results := map[int]bool{}
		for _, k := range []int{1, 2, 3} {
			prog, err := w.Compile(true)
			if err != nil {
				b.Fatal(err)
			}
			s := heisendump.NewCompiled(prog, w.Input, heisendump.WithBound(k), heisendump.WithTrialBudget(3000))
			rep, err := s.Reproduce(context.Background())
			if err != nil && !errors.Is(err, heisendump.ErrScheduleNotFound) {
				b.Fatal(err)
			}
			results[k] = rep.Search.Found
		}
		if i == 0 {
			b.Logf("apache-2 found: k=1:%v k=2:%v k=3:%v", results[1], results[2], results[3])
		}
	}
}

// BenchmarkSearchParallel measures the worker-pool schedule searcher
// on a Table-4-style search: plain CHESS (unweighted, unguided) on a
// Table 2 workload with an unmatchable target and a fixed try cutoff,
// so every run executes the same deterministic amount of trial work.
// Sub-benchmarks sweep the worker count; on a multi-core runner the
// all-cores variant should beat workers=1 by the trial-execution
// parallelism (the per-combination setup is amortized across the
// pool). The guided leg times the enhanced search a reproduction
// runs instead: weighted and guided, over the candidates of a real
// analysis, to its find.
func BenchmarkSearchParallel(b *testing.B) {
	w := workloads.ByName("mysql-1")
	cp, err := w.Compile(true)
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder()
	m := interp.New(cp, w.Input.Clone())
	m.MaxSteps = 1_000_000
	m.Hooks = rec
	if res := sched.Run(m, sched.NewCooperative()); res.Crashed {
		b.Fatalf("passing run crashed: %v", res.Crash)
	}
	cands := chess.DiscoverCandidates(cp, rec.Events)
	chess.Annotate(cands, nil)
	newMachine := func() *interp.Machine {
		mm := interp.New(cp, w.Input.Clone())
		mm.MaxSteps = 1_000_000
		return mm
	}

	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := &chess.Searcher{
				NewMachine: newMachine,
				Candidates: cands,
				Target:     chess.FailureSignature{Reason: "never matches"},
				Opts: chess.Options{
					Bound:        2,
					MaxTries:     400,
					Workers:      workers,
					PassingSteps: int64(len(rec.Events)),
				},
			}
			res := s.SearchContext(context.Background())
			if res.Found {
				b.Fatal("found an unmatchable signature")
			}
			if i == 0 {
				b.Logf("tries=%d executed=%d combos=%d steps=%d",
					res.Tries, res.TrialsExecuted, res.CombinationsGenerated, res.StepsExecuted)
			}
		}
	}

	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			run(b, workers)
		})
	}
	// Weighted + Guided at workers=1 over mysql-1's annotated
	// candidates, searched to its find: the one leg that times the
	// worklist ordering, which every guided reproduction pays once per
	// search and the plain legs never run.
	b.Run("guided", func(b *testing.B) {
		p := core.NewPipeline(cp, w.Input, core.Config{Workers: 1})
		fail, err := p.ProvokeFailureContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		an, err := p.AnalyzeContext(context.Background(), fail)
		if err != nil {
			b.Fatal(err)
		}
		s := p.Searcher(fail, an)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := s.SearchContext(context.Background())
			if !res.Found {
				b.Fatalf("guided search did not reproduce the failure in %d tries", res.Tries)
			}
			if i == 0 {
				b.Logf("tries=%d combos=%d steps=%d", res.Tries, res.CombinationsGenerated, res.StepsExecuted)
			}
		}
	})
}

// BenchmarkStepAllocs measures steady-state interpreter allocations:
// one machine re-executes a Table 2 workload via Machine.Reset, the
// regime of the schedule search's trial hot path. After the first run
// populates the free lists, the slot-addressed interpreter performs
// zero allocations per step — the "allocs/step" metric is what
// cmd/benchgate gates (see the "interp" baseline section).
func BenchmarkStepAllocs(b *testing.B) {
	w := workloads.ByName("mysql-1")
	cp, err := w.Compile(true)
	if err != nil {
		b.Fatal(err)
	}
	m := interp.New(cp, w.Input.Clone())
	// One scheduler, rewound in place per run like the machine.
	coop := sched.NewCooperative()
	sched.Run(m, coop) // warm the free lists
	var steps int64
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(m.Prog, m.SeedInput())
		*coop = sched.Cooperative{}
		steps += sched.Run(m, coop).Steps
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if steps > 0 {
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(steps), "allocs/step")
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	}
}

// BenchmarkPipelineEndToEnd times the full pipeline on fig1, the
// library's hot path.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	w := heisendump.WorkloadByName("fig1")
	prog, err := w.Compile(true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := heisendump.NewCompiled(prog, w.Input, heisendump.WithTrialBudget(500)).Reproduce(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Search.Found {
			b.Fatal("not reproduced")
		}
	}
}

// BenchmarkProvoke times the stress campaigns that provoke the seven
// Table 2 failures through Session.ProvokeFailure, the stand-in for
// the production run: a reproduction's fixed cost before its analysis.
// It reports µs per provoke and ns per stress step, counting every
// step of every attempt of a campaign (dump capture included in the
// time).
func BenchmarkProvoke(b *testing.B) {
	ctx := context.Background()
	var sessions []*heisendump.Session
	var steps int64 // stress steps of one pass over the seven campaigns
	for _, w := range workloads.Bugs() {
		prog, err := w.Compile(true)
		if err != nil {
			b.Fatal(err)
		}
		s := heisendump.NewCompiled(prog, w.Input)
		fail, err := s.ProvokeFailure(ctx)
		if err != nil {
			b.Fatalf("%s: %v", w.Name, err)
		}
		steps += stressSteps(prog, w.Input, fail.Attempts)
		sessions = append(sessions, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sessions {
			if _, err := s.ProvokeFailure(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/1e3/float64(len(sessions)), "µs/provoke")
	b.ReportMetric(ns/float64(steps), "ns/stress-step")
}

// stressSteps counts the steps of a stress campaign's first attempts
// attempts, running each seed as sched.StressContext does.
func stressSteps(prog *heisendump.Program, in *heisendump.Input, attempts int) int64 {
	m := interp.New(prog, in)
	m.MaxSteps = core.StepLimit
	var rnd sched.Random
	var n int64
	for seed := 0; seed < attempts; seed++ {
		m.Reset(prog, in)
		rnd.Seed(int64(seed))
		n += sched.Runner{}.Run(m, &rnd).Steps
	}
	return n
}

// BenchmarkSearchOneTry times a guided search that reproduces its
// failure at the first try: mysql-1 under the temporal heuristic at
// the default width, as table4-guided runs it. Almost all of its cost
// is the search's start-up (the worklist, the future index, the
// workers), which every guided search pays once. It reports µs and
// allocations per search.
func BenchmarkSearchOneTry(b *testing.B) {
	ctx := context.Background()
	w := workloads.ByName("mysql-1")
	prog, err := w.Compile(true)
	if err != nil {
		b.Fatal(err)
	}
	s := heisendump.NewCompiled(prog, w.Input)
	fail, err := s.ProvokeFailure(ctx)
	if err != nil {
		b.Fatal(err)
	}
	an, err := s.Analyze(ctx, fail)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Search(ctx, fail, an)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found || res.Tries != 1 {
			b.Fatalf("found=%v in %d tries, want a find at the first try", res.Found, res.Tries)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "µs/search")
}

// BenchmarkAnalysis times the analysis of the seven Table 2 failures,
// from NewAnalysis through StageCandidates, under the temporal and the
// dependence heuristic: a reproduction's work between the provoke and
// the search (the alignment re-run and its trace, the aligned dump,
// the dump diff, prioritization and the candidates). It reports µs and
// bytes per analysis.
func BenchmarkAnalysis(b *testing.B) {
	ctx := context.Background()
	type failure struct {
		s    *heisendump.Session
		fail *heisendump.FailureReport
	}
	var fails []failure
	for _, w := range workloads.Bugs() {
		prog, err := w.Compile(true)
		if err != nil {
			b.Fatal(err)
		}
		for _, h := range []heisendump.Heuristic{heisendump.Temporal, heisendump.Dependence} {
			s := heisendump.NewCompiled(prog, w.Input, heisendump.WithHeuristic(h), heisendump.WithWorkers(1))
			fail, err := s.ProvokeFailure(ctx)
			if err != nil {
				b.Fatalf("%s: %v", w.Name, err)
			}
			fails = append(fails, failure{s, fail})
		}
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fails {
			if err := f.s.NewAnalysis(f.fail).ThroughContext(ctx, heisendump.StageCandidates); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * len(fails))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/n, "µs/analysis")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/analysis")
}
