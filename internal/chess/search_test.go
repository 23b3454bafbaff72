package chess_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"heisendump/internal/chess"
	"heisendump/internal/core"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/slicing"
	"heisendump/internal/telemetry"
	"heisendump/internal/workloads"
)

// analyzedSearcher runs the pipeline's provoke+analyze phases on a
// Table 2 workload and returns a ready searcher.
func analyzedSearcher(t testing.TB, name string) *chess.Searcher {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("unknown workload %q", name)
	}
	return configuredSearcher(t, w, core.Config{})
}

// configuredSearcher is analyzedSearcher under an explicit pipeline
// configuration.
func configuredSearcher(t testing.TB, w *workloads.Workload, cfg core.Config) *chess.Searcher {
	t.Helper()
	p, fail, an := analyze(t, w, cfg)
	return p.Searcher(fail, an)
}

// analyze runs the pipeline's provoke and analyze phases on w.
func analyze(t testing.TB, w *workloads.Workload, cfg core.Config) (*core.Pipeline, *core.FailureReport, *core.AnalysisReport) {
	t.Helper()
	prog, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(prog, w.Input, cfg)
	fail, err := p.ProvokeFailureContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	an, err := p.AnalyzeContext(context.Background(), fail)
	if err != nil {
		t.Fatal(err)
	}
	return p, fail, an
}

// csvVars lists the analysis's CSVs in the passing run's terms, the
// list its accesses' CSV indexes refer to.
func csvVars(t *testing.T, prog *ir.Program, an *core.AnalysisReport) []interp.VarID {
	var out []interp.VarID
	for _, c := range an.CSVs {
		id, ok := c.BVar.ID(prog)
		if !ok {
			t.Fatalf("CSV %s: no slot in %s", c.Path, prog.Name)
		}
		out = append(out, id)
	}
	return out
}

// TestAnnotateMatchesQuadraticOnTable2 compares Annotate with the
// quadratic reference on the candidates and prioritized accesses of
// all seven Table 2 bugs under both heuristics.
func TestAnnotateMatchesQuadraticOnTable2(t *testing.T) {
	for _, w := range workloads.Bugs() {
		for _, h := range []slicing.Heuristic{slicing.Temporal, slicing.Dependence} {
			p, _, an := analyze(t, w, core.Config{Heuristic: h})
			if len(an.Accesses) == 0 {
				t.Fatalf("%s/%v: no prioritized accesses to annotate", w.Name, h)
			}
			if err := chess.CompareAnnotate(an.Candidates, an.Accesses, csvVars(t, p.Prog, an)); err != nil {
				t.Fatalf("%s/%v: %v", w.Name, h, err)
			}
		}
	}
}

// TestWorklistMatchesOracleOnTable2 compares the lazy worklist with
// the eager enumerate-and-sort oracle, rank by rank, on the annotated
// candidates of all seven Table 2 bugs under the temporal and
// dependence heuristics and under static focus, at the searched
// bound 2 and at bound 1, weighted and unweighted.
func TestWorklistMatchesOracleOnTable2(t *testing.T) {
	configs := map[string]core.Config{
		"temporal":   {Heuristic: slicing.Temporal},
		"dependence": {Heuristic: slicing.Dependence},
		"static":     {StaticFocus: true},
	}
	focused := 0
	for _, w := range workloads.Bugs() {
		for _, name := range []string{"temporal", "dependence", "static"} {
			s := configuredSearcher(t, w, configs[name])
			if s.Opts.Static != nil {
				focused++
			}
			for _, bound := range []int{1, 2} {
				for _, weighted := range []bool{false, true} {
					if err := chess.CompareWorklistOrder(s.Candidates, bound, weighted, s.Opts.Static); err != nil {
						t.Fatalf("%s/%s bound=%d weighted=%v: %v", w.Name, name, bound, weighted, err)
					}
				}
			}
		}
	}
	if focused == 0 {
		t.Fatal("no Table 2 bug has a static focus set; the static order went untested")
	}
	t.Logf("%d of %d bugs compared with a non-empty static focus set", focused, len(workloads.Bugs()))
}

// TestParallelSearchDeterminism: for a Table 2 workload, the search
// result is bit-identical for any worker count — the winning schedule
// is the lowest-ranked one regardless of which worker finds first.
func TestParallelSearchDeterminism(t *testing.T) {
	for _, name := range []string{"mysql-1", "apache-1"} {
		s := analyzedSearcher(t, name)
		s.Opts.MaxTries = 5000

		s.Opts.Workers = 1
		ref := s.SearchContext(context.Background())
		if !ref.Found {
			t.Fatalf("%s: reference search failed in %d tries", name, ref.Tries)
		}
		if ref.TrialsExecuted != ref.Tries {
			t.Fatalf("%s: single worker executed %d runs but reports %d tries",
				name, ref.TrialsExecuted, ref.Tries)
		}

		for _, workers := range []int{2, 4} {
			s.Opts.Workers = workers
			got := s.SearchContext(context.Background())
			if got.Found != ref.Found {
				t.Fatalf("%s: Found=%v with %d workers, %v with 1", name, got.Found, workers, ref.Found)
			}
			if !reflect.DeepEqual(got.Schedule, ref.Schedule) {
				t.Fatalf("%s: schedule diverged with %d workers:\n  got  %+v\n  want %+v",
					name, workers, got.Schedule, ref.Schedule)
			}
			if got.Tries != ref.Tries {
				t.Fatalf("%s: Tries=%d with %d workers, %d with 1", name, got.Tries, workers, ref.Tries)
			}
			if got.CombinationsGenerated != ref.CombinationsGenerated {
				t.Fatalf("%s: worklist size diverged: %d vs %d",
					name, got.CombinationsGenerated, ref.CombinationsGenerated)
			}
		}
	}
}

// TestParallelSearchDeterministicUnderCutoff: when MaxTries cuts the
// search off before any find, the reported Tries is the deterministic
// sequential count for any worker count, and never above the cutoff.
func TestParallelSearchDeterministicUnderCutoff(t *testing.T) {
	s := analyzedSearcher(t, "apache-2")
	s.Target = chess.FailureSignature{Reason: "never matches"}
	s.Opts.MaxTries = 40

	s.Opts.Workers = 1
	ref := s.SearchContext(context.Background())
	if ref.Found {
		t.Fatal("found an unmatchable signature")
	}
	if ref.Tries > 40 {
		t.Fatalf("tries %d exceeded cutoff", ref.Tries)
	}
	// A single worker never speculates, even when the cutoff lands in
	// the middle of a combination's odometer.
	if ref.TrialsExecuted != ref.Tries {
		t.Fatalf("single worker executed %d runs but reports %d tries", ref.TrialsExecuted, ref.Tries)
	}

	for _, workers := range []int{2, 4, 8} {
		s.Opts.Workers = workers
		got := s.SearchContext(context.Background())
		if got.Found {
			t.Fatal("found an unmatchable signature")
		}
		if got.Tries != ref.Tries {
			t.Fatalf("cutoff tries diverged: %d with %d workers, %d with 1", got.Tries, workers, ref.Tries)
		}
		if got.Tries > 40 {
			t.Fatalf("tries %d exceeded cutoff with %d workers", got.Tries, workers)
		}
	}
}

// TestUncancelledSearchCompletes: every rank is explored by a pool
// worker and an uncancelled search always ends decided or exhausted,
// never Cancelled, whatever the budget, order or pool width — a worker
// that claims a rank explores it unless the fold can never need it, so
// the fold is left no gap to wait on.
func TestUncancelledSearchCompletes(t *testing.T) {
	for _, w := range workloads.Bugs() {
		base := configuredSearcher(t, w, core.Config{})
		for _, guided := range []bool{false, true} {
			for _, workers := range []int{4, 8} {
				for _, budget := range []int{1, 7, 40, 400} {
					s := *base
					s.Opts.Weighted, s.Opts.Guided = guided, guided
					s.Opts.Workers, s.Opts.MaxTries = workers, budget
					// Fold events are serialized under the search's lock.
					lo, hi := 0, -1
					s.Opts.Observers = telemetry.Observers{telemetry.ObserverFunc(func(e telemetry.Event) {
						if e.Kind == telemetry.KindFold && !e.Progress.Done {
							lo, hi = min(lo, e.Rank.Worker), max(hi, e.Rank.Worker)
						}
					})}
					res := s.SearchContext(context.Background())
					name := fmt.Sprintf("%s guided=%v workers=%d budget=%d", w.Name, guided, workers, budget)
					if res.Cancelled {
						t.Fatalf("%s: uncancelled search reports Cancelled: %+v", name, res)
					}
					if res.TrialsExecuted < res.Tries || res.Tries > budget {
						t.Fatalf("%s: executed %d trials for %d tries", name, res.TrialsExecuted, res.Tries)
					}
					if lo < 0 || hi >= res.Workers {
						t.Fatalf("%s: rank workers span [%d, %d], want within [0, %d)", name, lo, hi, res.Workers)
					}
				}
			}
		}
	}
}

// TestRankStreamDeterministic: the fold events' rank summaries (rank,
// tries, found) and heartbeats (committed, tries, found, done) form
// the same stream for any worker count. The summaries' tries sum to
// the search's Tries and, at one worker, where nothing is
// speculative, their steps sum to StepsExecuted.
func TestRankStreamDeterministic(t *testing.T) {
	type beat struct {
		rank, rankTries  int
		rankFound        bool
		committed, tries int
		found, done      bool
	}
	for _, w := range workloads.Bugs() {
		base := configuredSearcher(t, w, core.Config{})
		for _, guided := range []bool{false, true} {
			for _, budget := range []int{7, 40, 400} {
				var ref []beat
				for _, workers := range []int{1, 4, 8} {
					s := *base
					s.Opts.Weighted, s.Opts.Guided = guided, guided
					s.Opts.Workers, s.Opts.MaxTries = workers, budget
					// Fold events are serialized under the search's lock.
					var got []beat
					tries, steps := 0, int64(0)
					s.Opts.Observers = telemetry.Observers{telemetry.ObserverFunc(func(e telemetry.Event) {
						if e.Kind != telemetry.KindFold {
							return
						}
						r, p := e.Rank, e.Progress
						got = append(got, beat{r.Rank, r.Tries, r.Found, p.Committed, p.Tries, p.Found, p.Done})
						tries += r.Tries
						steps += r.Steps
					})}
					res := s.SearchContext(context.Background())
					name := fmt.Sprintf("%s guided=%v budget=%d workers=%d", w.Name, guided, budget, workers)
					if tries != res.Tries {
						t.Fatalf("%s: rank tries sum to %d, want Tries %d", name, tries, res.Tries)
					}
					if workers == 1 {
						if steps != res.StepsExecuted {
							t.Fatalf("%s: rank steps sum to %d, want StepsExecuted %d", name, steps, res.StepsExecuted)
						}
						ref = got
						continue
					}
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("%s: fold stream diverged from one worker's:\n  got  %+v\n  want %+v", name, got, ref)
					}
				}
			}
		}
	}
}

// TestSearchWorkerZeroRunsOnCaller: worker 0 runs on the goroutine
// that called SearchContext, so a one-worker search starts no
// goroutine and the fold events its ranks commit are observed on the
// caller's stack.
func TestSearchWorkerZeroRunsOnCaller(t *testing.T) {
	s := analyzedSearcher(t, "mysql-1")
	s.Opts.Workers = 1
	var stack []byte
	s.Opts.Observers = telemetry.Observers{telemetry.ObserverFunc(func(e telemetry.Event) {
		if e.Kind == telemetry.KindFold && !e.Progress.Done && stack == nil {
			buf := make([]byte, 64<<10)
			stack = buf[:runtime.Stack(buf, false)]
		}
	})}
	if res := s.SearchContext(context.Background()); res.TrialsExecuted == 0 {
		t.Fatal("the search executed no trial")
	}
	// The observer is a closure of the test, so look for the test's
	// own frame: its name followed by its argument list.
	if !bytes.Contains(stack, []byte(".TestSearchWorkerZeroRunsOnCaller(")) {
		t.Fatalf("a rank's fold event goroutine stack does not reach the test:\n%s", stack)
	}
}

// TestSearchContextPreCancelled: a context cancelled before the search
// starts yields an empty Cancelled result without executing a single
// trial.
func TestSearchContextPreCancelled(t *testing.T) {
	s := analyzedSearcher(t, "apache-1")
	s.Opts.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := s.SearchContext(ctx)
	if !res.Cancelled {
		t.Fatalf("result not marked cancelled: %+v", res)
	}
	if res.Found || res.Tries != 0 || res.TrialsExecuted != 0 {
		t.Fatalf("pre-cancelled search did work: %+v", res)
	}
}

// TestSearchContextCancelDeterministic: cancelling from a fold event
// once the folded try counter reaches a budget stops the fold at the
// same committed prefix for any worker count — the partial
// Tries (and the absence of a find) are bit-identical.
func TestSearchContextCancelDeterministic(t *testing.T) {
	s := analyzedSearcher(t, "apache-2")
	s.Target = chess.FailureSignature{Reason: "never matches"}
	const budget = 60

	run := func(workers int) *chess.Result {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s.Opts.Workers = workers
		s.Opts.Observers = telemetry.Observers{telemetry.ObserverFunc(func(e telemetry.Event) {
			if e.Kind == telemetry.KindFold && !e.Progress.Done && e.Progress.Tries >= budget {
				cancel()
			}
		})}
		defer func() { s.Opts.Observers = nil }()
		return s.SearchContext(ctx)
	}

	ref := run(1)
	if !ref.Cancelled {
		t.Fatalf("reference search not cancelled: %+v", ref)
	}
	if ref.Tries < budget {
		t.Fatalf("fold stopped at %d tries, before the %d budget", ref.Tries, budget)
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if !got.Cancelled {
			t.Fatalf("workers=%d: not cancelled: %+v", workers, got)
		}
		if got.Tries != ref.Tries || got.Found != ref.Found {
			t.Fatalf("workers=%d: partial prefix diverged: tries=%d found=%v, want tries=%d found=%v",
				workers, got.Tries, got.Found, ref.Tries, ref.Found)
		}
	}
}

// TestSearchNoCandidates: an empty candidate set yields an empty,
// well-formed result.
func TestSearchNoCandidates(t *testing.T) {
	s := &chess.Searcher{
		NewMachine: func() *interp.Machine { t.Fatal("machine built with no work"); return nil },
		Target:     chess.FailureSignature{Reason: "x"},
		Opts:       chess.Options{Bound: 2, Workers: 4},
	}
	res := s.SearchContext(context.Background())
	if res.Found || res.Tries != 0 || res.CombinationsGenerated != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}
