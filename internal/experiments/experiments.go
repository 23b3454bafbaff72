// Package experiments regenerates every table and figure of the
// paper's evaluation (§6) on the library's workloads. Each experiment
// returns structured rows and can render itself as text; cmd/benchtab
// prints them and the top-level benchmarks time them.
//
// Absolute numbers differ from the paper — the substrate is a
// deterministic interpreter, not a Core 2 Duo running mysql under
// Valgrind — but each table's shape (who wins, by what magnitude,
// where the technique fails) is the reproduction target; see
// EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"heisendump/internal/chess"
	"heisendump/internal/core"
	"heisendump/internal/ctrldep"
	"heisendump/internal/index"
	"heisendump/internal/instrument"
	"heisendump/internal/ir"
	"heisendump/internal/pool"
	"heisendump/internal/sched"
	"heisendump/internal/slicing"
	"heisendump/internal/telemetry"
	"heisendump/internal/workloads"
)

// Workers bounds how many independent subjects (bug workloads,
// corpora) each table generator runs concurrently; <= 0 means
// GOMAXPROCS. Every subject's pipeline is deterministic and
// self-contained, so row order and all counted columns (tries, CSVs,
// dump bytes, ...) are identical for any width; only the wall-clock
// time columns vary, since co-scheduled subjects contend for cores.
// Set it once at startup (cmd/benchtab's -workers flag does).
var Workers = 0

// Observe returns the observers of one subject's pipeline in tables 3
// to 6 and the static comparison, given the subject workload's name;
// the default attaches none. cmd/benchtab's -progress and -trace flags
// wire a heartbeat printer and a Tracer through it. The observers are
// called from concurrently running subjects: they must be safe for
// concurrent use and fast. Observing is passive: all counted columns
// are bit-identical with observers attached. Set it once at startup.
var Observe = func(subject string) telemetry.Observers { return nil }

// IncludeGenerated appends the curated generator-derived workloads
// (workloads.Generated()) to the subjects of Tables 2–6, so the
// machine-manufactured bugs report rows alongside the paper's seven.
// Off by default: the benchmark-regression baseline
// (BENCH_baseline.json) pins the original rows, and the generated rows
// are additive (cmd/benchtab's -generated flag sets this). Set it once
// at startup.
var IncludeGenerated = false

// subjects returns the bug workloads the tables run over: the paper's
// Table 2 seven, plus the curated generated corpus when
// IncludeGenerated is set.
func subjects() []*workloads.Workload {
	bugs := workloads.Bugs()
	if !IncludeGenerated {
		return bugs
	}
	return append(append([]*workloads.Workload(nil), bugs...), workloads.Generated()...)
}

// Every table generator takes a context threaded into each subject's
// pipeline phases: cancellation skips unstarted subjects (the pool
// claims nothing more) and stops in-flight subjects at the pipeline's
// usual granularity, returning an error that wraps core.ErrCancelled
// (or the bare context error when only unstarted work was cut).

// Table1Row is one corpus's control-dependence distribution.
type Table1Row struct {
	Benchmark string
	OneCD     float64 // single (or no) intraprocedural control dependence
	AggrToOne float64
	NotAggr   float64
	Loop      float64
	Total     int
}

// Table1 computes the control-dependence distribution over the three
// synthetic corpora.
func Table1(ctx context.Context) ([]Table1Row, error) {
	specs := workloads.CorpusSpecs()
	rows := make([]Table1Row, len(specs))
	err := pool.ForEachContext(ctx, Workers, len(specs), func(i int) error {
		spec := specs[i]
		prog, err := workloads.GenerateCorpus(spec)
		if err != nil {
			return err
		}
		cp, err := ir.Compile(prog, ir.Options{})
		if err != nil {
			return err
		}
		st := ctrldep.AnalyzeProgram(cp).ProgramStats()
		tot := float64(st.Total)
		rows[i] = Table1Row{
			Benchmark: spec.Name,
			OneCD:     100 * float64(st.One+st.None) / tot,
			AggrToOne: 100 * float64(st.Aggregatable) / tot,
			NotAggr:   100 * float64(st.NonAggregatable) / tot,
			Loop:      100 * float64(st.Loop) / tot,
			Total:     st.Total,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintTable1 renders Table 1.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1. Distribution of control dependences.")
	fmt.Fprintf(w, "%-18s %8s %10s %10s %8s %8s\n", "benchmark", "one CD", "aggr.to 1", "not aggr.", "loop", "total")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %7.2f%% %9.2f%% %9.2f%% %7.2f%% %8d\n",
			r.Benchmark, r.OneCD, r.AggrToOne, r.NotAggr, r.Loop, r.Total)
	}
}

// Table2Row describes one studied bug.
type Table2Row struct {
	Name        string
	BugID       string
	Kind        string
	Steps       int64 // deterministic execution length (the paper reports seconds)
	Threads     int
	Description string
}

// Table2 describes the studied bugs.
func Table2(ctx context.Context) ([]Table2Row, error) {
	bugs := subjects()
	rows := make([]Table2Row, len(bugs))
	err := pool.ForEachContext(ctx, Workers, len(bugs), func(i int) error {
		w := bugs[i]
		prog, err := w.Compile(true)
		if err != nil {
			return err
		}
		p := core.NewPipeline(prog, w.Input, core.Config{})
		rows[i] = Table2Row{
			Name: w.Name, BugID: w.BugID, Kind: w.Kind,
			Steps:   sched.Run(p.NewMachine(), sched.NewCooperative()).Steps,
			Threads: w.Threads, Description: w.Description,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintTable2 renders Table 2.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2. Concurrency bugs studied.")
	fmt.Fprintf(w, "%-10s %-7s %-5s %10s %8s  %s\n", "bug", "id", "type", "exec steps", "threads", "description")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-7s %-5s %10d %8d  %s\n",
			r.Name, r.BugID, r.Kind, r.Steps, r.Threads, r.Description)
	}
}

// Table3Row is one bug's core dump analysis.
type Table3Row struct {
	Name           string
	FailDumpBytes  int
	PassDumpBytes  int
	VarsCompared   int
	Diffs          int
	SharedCompared int
	CSVs           int
	IndexLen       int
	AlignKind      index.AlignKind
	StressAttempts int
}

// Table3 runs the analysis phase on every bug.
func Table3(ctx context.Context) ([]Table3Row, error) {
	bugs := subjects()
	rows := make([]Table3Row, len(bugs))
	err := pool.ForEachContext(ctx, Workers, len(bugs), func(i int) error {
		w := bugs[i]
		_, an, fail, err := analyzeBug(ctx, w, core.Config{})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		rows[i] = Table3Row{
			Name:           w.Name,
			FailDumpBytes:  fail.DumpBytes,
			PassDumpBytes:  an.AlignedDumpBytes,
			VarsCompared:   an.Diff.VarsCompared,
			Diffs:          len(an.Diff.Diffs),
			SharedCompared: an.Diff.SharedCompared,
			CSVs:           len(an.CSVs),
			IndexLen:       an.IndexLen,
			AlignKind:      an.AlignKind,
			StressAttempts: fail.Attempts,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func analyzeBug(ctx context.Context, w *workloads.Workload, cfg core.Config) (*core.Pipeline, *core.AnalysisReport, *core.FailureReport, error) {
	prog, err := w.Compile(true)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.Observers = Observe(w.Name)
	p := core.NewPipeline(prog, w.Input, cfg)
	fail, err := p.ProvokeFailureContext(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	an, err := p.AnalyzeContext(ctx, fail)
	if err != nil {
		return nil, nil, nil, err
	}
	return p, an, fail, nil
}

// PrintTable3 renders Table 3.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3. Core dump analysis.")
	fmt.Fprintf(w, "%-10s %16s %12s %12s %10s %8s\n",
		"bug", "dump bytes(F+P)", "vars/diffs", "shared/CSV", "len(index)", "align")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %7d/%-8d %6d/%-5d %6d/%-5d %10d %8v\n",
			r.Name, r.FailDumpBytes, r.PassDumpBytes,
			r.VarsCompared, r.Diffs, r.SharedCompared, r.CSVs, r.IndexLen, r.AlignKind)
	}
}

// Table4Row compares the search algorithms on one bug. The searches
// run with one worker, so *Executed equals *Tries and *StepsExecuted
// (the interpreter steps the executed trials cost) is deterministic;
// cmd/benchgate gates it as a ceiling.
type Table4Row struct {
	Name string
	// Chess* are the plain-CHESS results (Found false means the cutoff
	// hit, the analogue of the paper's 18-hour timeouts).
	ChessTries         int
	ChessTime          time.Duration
	ChessFound         bool
	ChessExecuted      int
	ChessStepsExecuted int64

	DepTries         int
	DepTime          time.Duration
	DepFound         bool
	DepExecuted      int
	DepStepsExecuted int64

	TempTries         int
	TempTime          time.Duration
	TempFound         bool
	TempExecuted      int
	TempStepsExecuted int64
}

// Table4 runs the three search configurations on every bug. plainCap
// bounds plain CHESS (0 means 2000). The provocation, alignment and
// dump-diff stages run once per bug and are shared by the three
// configurations (they are heuristic-independent); only the
// prioritization/candidate stages and the search itself re-run, via
// the stage-structured analysis API.
func Table4(ctx context.Context, plainCap int) ([]Table4Row, error) {
	if plainCap == 0 {
		plainCap = 2000
	}
	bugs := subjects()
	rows := make([]Table4Row, len(bugs))
	err := pool.ForEachContext(ctx, Workers, len(bugs), func(i int) error {
		w := bugs[i]
		prog, err := w.Compile(true)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		// Workers=1: the subject-level pool already saturates the cores;
		// a nested full-width search pool per bug would oversubscribe
		// them roughly quadratically and perturb the time columns.
		p := core.NewPipeline(prog, w.Input, core.Config{Workers: 1, Observers: Observe(w.Name)})
		fail, err := p.ProvokeFailureContext(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		an := p.NewAnalysis(fail)
		if err := an.ThroughContext(ctx, core.StageDiff); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}

		search := func(h slicing.Heuristic, enhanced bool, maxTries int) (*chess.Result, error) {
			if err := an.Reprioritize(ctx, h); err != nil {
				return nil, err
			}
			s := p.Searcher(fail, an.Report)
			s.Opts.Weighted = enhanced
			s.Opts.Guided = enhanced
			s.Opts.MaxTries = maxTries
			res := s.SearchContext(ctx)
			if res.Cancelled {
				return nil, core.Cancelled(ctx.Err())
			}
			return res, nil
		}

		row := Table4Row{Name: w.Name}
		res, err := search(slicing.Temporal, false, plainCap)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		row.ChessTries, row.ChessTime, row.ChessFound = res.Tries, res.Elapsed, res.Found
		row.ChessExecuted, row.ChessStepsExecuted = res.TrialsExecuted, res.StepsExecuted
		res, err = search(slicing.Dependence, true, plainCap*2)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		row.DepTries, row.DepTime, row.DepFound = res.Tries, res.Elapsed, res.Found
		row.DepExecuted, row.DepStepsExecuted = res.TrialsExecuted, res.StepsExecuted
		res, err = search(slicing.Temporal, true, plainCap*2)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		row.TempTries, row.TempTime, row.TempFound = res.Tries, res.Elapsed, res.Found
		row.TempExecuted, row.TempStepsExecuted = res.TrialsExecuted, res.StepsExecuted
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintTable4 renders Table 4.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4. Failure-inducing schedule production.")
	fmt.Fprintf(w, "%-10s | %28s | %28s | %28s\n", "bug", "chess", "chessX+dep", "chessX+temporal")
	fmt.Fprintf(w, "%-10s | %7s %10s %9s | %7s %10s %9s | %7s %10s %9s\n",
		"", "tries", "time", "steps", "tries", "time", "steps", "tries", "time", "steps")
	for _, r := range rows {
		mark := func(tries int, found bool) string {
			if found {
				return fmt.Sprintf("%d", tries)
			}
			return fmt.Sprintf("%d*", tries)
		}
		fmt.Fprintf(w, "%-10s | %7s %10s %9d | %7s %10s %9d | %7s %10s %9d\n",
			r.Name,
			mark(r.ChessTries, r.ChessFound), r.ChessTime.Round(time.Millisecond), r.ChessStepsExecuted,
			mark(r.DepTries, r.DepFound), r.DepTime.Round(time.Millisecond), r.DepStepsExecuted,
			mark(r.TempTries, r.TempFound), r.TempTime.Round(time.Millisecond), r.TempStepsExecuted)
	}
	fmt.Fprintln(w, "* cut off before the failure was reproduced")
}

// Table5Row is the instruction-count-alignment baseline on one bug.
type Table5Row struct {
	Name           string
	ThreadInstrs   int64
	VarsCompared   int
	Diffs          int
	SharedCompared int
	CSVs           int
	Tries          int
	Time           time.Duration
	Reproduced     bool
	// Executed counts the test runs the search executed (equal to
	// Tries: the search runs with one worker).
	Executed int
}

// Table5 runs the chessX+temporal search with instruction-count
// alignment instead of execution-index alignment.
func Table5(ctx context.Context, cap int) ([]Table5Row, error) {
	if cap == 0 {
		cap = 2000
	}
	bugs := subjects()
	rows := make([]Table5Row, len(bugs))
	err := pool.ForEachContext(ctx, Workers, len(bugs), func(i int) error {
		w := bugs[i]
		p, an, fail, err := analyzeBug(ctx, w, core.Config{
			Alignment: core.AlignByInstructionCount,
			Heuristic: slicing.Temporal,
			MaxTries:  cap,
			Workers:   1, // the subject pool provides the parallelism
		})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		res, err := p.ReproduceContext(ctx, fail, an)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		rows[i] = Table5Row{
			Name:           w.Name,
			ThreadInstrs:   an.ThreadSteps,
			VarsCompared:   an.Diff.VarsCompared,
			Diffs:          len(an.Diff.Diffs),
			SharedCompared: an.Diff.SharedCompared,
			CSVs:           len(an.CSVs),
			Tries:          res.Tries,
			Time:           res.Elapsed,
			Reproduced:     res.Found,
			Executed:       res.TrialsExecuted,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintTable5 renders Table 5.
func PrintTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table 5. ChessX+Temporal using instruction counts.")
	fmt.Fprintf(w, "%-10s %8s %12s %12s %8s %10s %6s\n",
		"bug", "instrs", "vars/diffs", "shared/CSV", "tries", "time", "repro")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %6d/%-5d %6d/%-5d %8d %10s %6v\n",
			r.Name, r.ThreadInstrs, r.VarsCompared, r.Diffs,
			r.SharedCompared, r.CSVs, r.Tries, r.Time.Round(time.Millisecond), r.Reproduced)
	}
}

// Table6Row is one bug's analysis cost breakdown.
type Table6Row struct {
	Name        string
	DumpCapture time.Duration // dump generation + serialization
	DumpDiff    time.Duration
	Slicing     time.Duration
	Reverse     time.Duration
	Align       time.Duration
}

// Table6 measures the one-time analysis costs per bug.
func Table6(ctx context.Context) ([]Table6Row, error) {
	bugs := subjects()
	rows := make([]Table6Row, len(bugs))
	err := pool.ForEachContext(ctx, Workers, len(bugs), func(i int) error {
		w := bugs[i]
		_, an, _, err := analyzeBug(ctx, w, core.Config{Heuristic: slicing.Dependence})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		rows[i] = Table6Row{
			Name:        w.Name,
			DumpCapture: an.DumpTime,
			DumpDiff:    an.DiffTime,
			Slicing:     an.SliceTime,
			Reverse:     an.ReverseTime,
			Align:       an.AlignTime,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintTable6 renders Table 6.
func PrintTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintln(w, "Table 6. Other cost (one-time analysis costs).")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %12s\n",
		"bug", "dump", "diff", "slicing", "reverse-idx", "align")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %12s\n",
			r.Name, r.DumpCapture, r.DumpDiff, r.Slicing, r.Reverse, r.Align)
	}
}

// Fig10Row is one program's instrumentation overhead.
type Fig10Row struct {
	Name    string
	Ratio   float64 // instrumented/base step ratio
	Percent float64
	While   int
	Counted int
}

// Fig10 measures loop-counter instrumentation overhead on the bug
// workloads and the splash kernels. Unlike the tables, the subjects
// run sequentially: the measurement is a wall-clock ratio, and
// co-scheduled subjects would perturb each other's timings. Both
// compilations of each subject go through Workload.Compile — the same
// compile path the pipeline uses.
func Fig10(ctx context.Context, reps int) ([]Fig10Row, error) {
	subjects := append(append([]*workloads.Workload{}, workloads.Bugs()...), workloads.SplashKernels()...)
	var rows []Fig10Row
	for _, w := range subjects {
		if err := ctx.Err(); err != nil {
			return nil, core.Cancelled(err)
		}
		base, err := w.Compile(false)
		if err != nil {
			return nil, err
		}
		instr, err := w.Compile(true)
		if err != nil {
			return nil, err
		}
		o, err := instrument.MeasureCompiled(w.Name, base, instr, w.Input, reps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{
			Name:    w.Name,
			Ratio:   o.StepRatio(),
			Percent: o.Percent(),
			While:   o.WhileLoops,
			Counted: o.CountedLoops,
		})
	}
	return rows, nil
}

// PrintFig10 renders Fig. 10 as a text bar chart.
func PrintFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintln(w, "Fig. 10. Runtime overhead of loop-counter instrumentation.")
	fmt.Fprintf(w, "%-14s %8s %9s %7s %8s  %s\n", "program", "ratio", "overhead", "while", "counted", "")
	var sum float64
	for _, r := range rows {
		bar := ""
		for i := 0; i < int(r.Percent*4+0.5); i++ {
			bar += "#"
		}
		fmt.Fprintf(w, "%-14s %8.4f %8.2f%% %7d %8d  %s\n",
			r.Name, r.Ratio, r.Percent, r.While, r.Counted, bar)
		sum += r.Percent
	}
	fmt.Fprintf(w, "average overhead: %.2f%%\n", sum/float64(len(rows)))
}
