package heisendump_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"heisendump"
)

func compileWorkload(t testing.TB, name string) (*heisendump.Workload, *heisendump.Program) {
	t.Helper()
	w := heisendump.WorkloadByName(name)
	if w == nil {
		t.Fatalf("unknown workload %q", name)
	}
	prog, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	return w, prog
}

// cancelAtTries runs a full Session reproduction of the workload and
// cancels the context from a fold event as soon as the search's folded
// (deterministic) try counter reaches budget. The fold emits one
// heartbeat per committed rank and checks the context before each
// commit, so the cancellation point — and with it the partial result —
// is a pure function of budget, not of worker scheduling.
func cancelAtTries(t *testing.T, name string, workers, budget int) (*heisendump.Report, error) {
	t.Helper()
	w, prog := compileWorkload(t, name)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := heisendump.ObserverFunc(func(e heisendump.Event) {
		if e.Kind == heisendump.EventFold && !e.Progress.Done && e.Progress.Tries >= budget {
			cancel()
		}
	})
	s := heisendump.NewCompiled(prog, w.Input,
		heisendump.WithWorkers(workers),
		heisendump.WithObserver(obs),
	)
	return s.Reproduce(ctx)
}

// TestSessionCancellationDeterminism: cancelling mid-search at a fixed
// folded-trial budget yields a partial Report whose completed-trial
// prefix — Found, Schedule and Tries over the executed trials the fold
// committed — is bit-identical across worker counts 1 and 4.
func TestSessionCancellationDeterminism(t *testing.T) {
	const budget = 100 // apache-2's temporal search finds at try 460, so this cancels well before the find

	ref, refErr := cancelAtTries(t, "apache-2", 1, budget)
	if !errors.Is(refErr, heisendump.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", refErr)
	}
	if !ref.Partial {
		t.Fatal("cancelled report not marked Partial")
	}
	if ref.Search == nil || !ref.Search.Cancelled {
		t.Fatalf("cancelled search result missing: %+v", ref.Search)
	}
	if ref.Search.Tries < budget {
		t.Fatalf("fold stopped at %d tries, before the %d budget", ref.Search.Tries, budget)
	}
	if ref.Search.Found {
		t.Fatal("search found the schedule before the cancellation budget; pick a smaller budget")
	}

	got, gotErr := cancelAtTries(t, "apache-2", 4, budget)
	if !errors.Is(gotErr, heisendump.ErrCancelled) {
		t.Fatalf("want ErrCancelled with 4 workers, got %v", gotErr)
	}
	if got.Search.Found != ref.Search.Found {
		t.Fatalf("partial Found diverged: %v with 4 workers, %v with 1", got.Search.Found, ref.Search.Found)
	}
	if !reflect.DeepEqual(got.Search.Schedule, ref.Search.Schedule) {
		t.Fatalf("partial Schedule diverged:\n  got  %+v\n  want %+v", got.Search.Schedule, ref.Search.Schedule)
	}
	if got.Search.Tries != ref.Search.Tries {
		t.Fatalf("partial Tries diverged: %d with 4 workers, %d with 1", got.Search.Tries, ref.Search.Tries)
	}
}

// TestSessionErrNoFailure: a race-free program exhausts the stress
// budget with an error matching ErrNoFailure.
func TestSessionErrNoFailure(t *testing.T) {
	prog, err := heisendump.CompileSource(`
program healthy;
global int n;
lock L;
func main() {
    spawn inc();
    spawn inc();
}
func inc() {
    acquire(L);
    n = n + 1;
    release(L);
}
`, true)
	if err != nil {
		t.Fatal(err)
	}
	s := heisendump.NewCompiled(prog, nil, heisendump.WithStressBudget(50))
	rep, err := s.Reproduce(context.Background())
	if !errors.Is(err, heisendump.ErrNoFailure) {
		t.Fatalf("want ErrNoFailure, got %v", err)
	}
	if errors.Is(err, heisendump.ErrCancelled) || errors.Is(err, heisendump.ErrScheduleNotFound) {
		t.Fatalf("error matches the wrong sentinels: %v", err)
	}
	if rep == nil || rep.Partial {
		t.Fatalf("budget exhaustion is not a cancellation: %+v", rep)
	}
}

// TestSessionErrScheduleNotFound: a search that hits its trial budget
// without reproducing returns the complete report with an error
// matching ErrScheduleNotFound.
func TestSessionErrScheduleNotFound(t *testing.T) {
	w, prog := compileWorkload(t, "apache-2")
	s := heisendump.NewCompiled(prog, w.Input,
		heisendump.WithPlainChess(true), // undirected CHESS does not find apache-2 within thousands of tries
		heisendump.WithTrialBudget(40),
		heisendump.WithWorkers(2),
	)
	rep, err := s.Reproduce(context.Background())
	if !errors.Is(err, heisendump.ErrScheduleNotFound) {
		t.Fatalf("want ErrScheduleNotFound, got %v", err)
	}
	if errors.Is(err, heisendump.ErrCancelled) {
		t.Fatalf("budget exhaustion must not match ErrCancelled: %v", err)
	}
	if rep.Partial {
		t.Fatal("a completed (cut-off) search is not a partial report")
	}
	if rep.Search == nil || rep.Search.Found || rep.Search.Cancelled {
		t.Fatalf("unexpected search result: %+v", rep.Search)
	}
	if rep.Failure == nil || rep.Analysis == nil {
		t.Fatal("complete report missing earlier sections")
	}
}

// TestSessionErrCancelled covers cancellation at each pipeline stage:
// before the run starts, mid-analysis (triggered from a stage-begin
// event),
// and via a deadline — all matching both ErrCancelled and the
// underlying context error.
func TestSessionErrCancelled(t *testing.T) {
	w, prog := compileWorkload(t, "fig1")

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rep, err := heisendump.NewCompiled(prog, w.Input).Reproduce(ctx)
		if !errors.Is(err, heisendump.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("want ErrCancelled wrapping context.Canceled, got %v", err)
		}
		if rep == nil || !rep.Partial {
			t.Fatalf("want an empty partial report, got %+v", rep)
		}
		if rep.Failure != nil || rep.Analysis != nil || rep.Search != nil {
			t.Fatalf("pre-cancelled run produced artifacts: %+v", rep)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		_, err := heisendump.NewCompiled(prog, w.Input).Reproduce(ctx)
		if !errors.Is(err, heisendump.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want ErrCancelled wrapping DeadlineExceeded, got %v", err)
		}
	})

	t.Run("mid-analysis", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		obs := heisendump.ObserverFunc(func(e heisendump.Event) {
			if e.Kind == heisendump.EventStageBegin && e.Stage == heisendump.StageDiff.String() {
				cancel()
			}
		})
		rep, err := heisendump.NewCompiled(prog, w.Input, heisendump.WithObserver(obs)).Reproduce(ctx)
		if !errors.Is(err, heisendump.ErrCancelled) {
			t.Fatalf("want ErrCancelled, got %v", err)
		}
		if !rep.Partial || rep.Failure == nil || rep.Analysis == nil {
			t.Fatalf("partial report missing completed stages: %+v", rep)
		}
		// The stage the cancel landed on still completes (checks are
		// between stages); later stages never run.
		if rep.Analysis.Diff == nil {
			t.Fatal("StageDiff artifacts missing from the partial report")
		}
		if rep.Analysis.Accesses != nil || rep.Analysis.Candidates != nil || rep.Search != nil {
			t.Fatalf("stages past the cancellation ran: %+v", rep)
		}
	})
}

// streamRecorder collects a run's event stream; fold events arrive
// from whichever search worker's record commits the rank.
type streamRecorder struct {
	mu     sync.Mutex
	events []heisendump.Event
}

func (r *streamRecorder) Observe(e heisendump.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// wantStages are the seven stages of a full run, in order.
var wantStages = []string{"provoke", "align", "aligned-dump", "diff", "prioritize", "candidates", "search"}

// checkStream checks one full run's event stream against the delivery
// contract: the seven stages as begin/end pairs in order, each end
// carrying its begin's span id; every fold inside the search span;
// fold heartbeats with constant Combos and monotone counters, the one
// with Done set last. It returns the stream's span ids, fold
// heartbeats and the fold events of committed ranks.
func checkStream(t *testing.T, events []heisendump.Event) (spans []uint64, beats []heisendump.SearchProgress, ranks []heisendump.Event) {
	t.Helper()
	var stages []string
	open := -1 // index into stages of the open stage
	done := false
	for i, e := range events {
		switch e.Kind {
		case heisendump.EventStageBegin:
			if open >= 0 {
				t.Fatalf("event %d: %s begins inside %s", i, e.Stage, stages[open])
			}
			open = len(stages)
			stages = append(stages, e.Stage)
			spans = append(spans, e.Span)
		case heisendump.EventStageEnd:
			if open < 0 || e.Stage != stages[open] || e.Span != spans[open] {
				t.Fatalf("event %d: end of %s span %d does not close the open stage (%v, spans %v)",
					i, e.Stage, e.Span, stages, spans)
			}
			open = -1
		case heisendump.EventFold:
			if open < 0 || stages[open] != "search" {
				t.Fatalf("event %d (kind %d) outside the search span", i, e.Kind)
			}
			if done {
				t.Fatalf("event %d (kind %d) after the Done heartbeat", i, e.Kind)
			}
			done = e.Progress.Done
			beats = append(beats, e.Progress)
			if !done {
				ranks = append(ranks, e)
			}
		default:
			t.Fatalf("event %d: unknown kind %d", i, e.Kind)
		}
	}
	if open >= 0 {
		t.Fatalf("stage %s never ended", stages[open])
	}
	if !reflect.DeepEqual(stages, wantStages) {
		t.Fatalf("stages %v, want %v", stages, wantStages)
	}
	if !done {
		t.Fatalf("no Done heartbeat among %d", len(beats))
	}
	for i, p := range beats[1:] {
		prev := beats[i]
		if p.Combos != prev.Combos {
			t.Fatalf("heartbeat %d changed Combos: %d vs %d", i+1, p.Combos, prev.Combos)
		}
		if p.Committed < prev.Committed || p.Tries < prev.Tries ||
			p.Executed < prev.Executed || p.Steps < prev.Steps {
			t.Fatalf("heartbeat %d not monotone: %+v after %+v", i+1, p, prev)
		}
	}
	return spans, beats, ranks
}

// TestSessionObserverOrdering: one full run delivers the seven stages
// as begin/end pairs in order, each end carrying its begin's span id,
// with every fold heartbeat inside the search span and the Done
// heartbeat last — at one worker and at four.
func TestSessionObserverOrdering(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			w, prog := compileWorkload(t, "mysql-3")
			var rec streamRecorder
			s := heisendump.NewCompiled(prog, w.Input,
				heisendump.WithWorkers(workers),
				heisendump.WithObserver(&rec),
			)
			rep, err := s.Reproduce(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Search.Found {
				t.Fatal("mysql-3 not reproduced")
			}
			_, beats, _ := checkStream(t, rec.events)
			final := beats[len(beats)-1]
			if !final.Found || final.Cancelled || final.Tries != rep.Search.Tries || final.Executed != rep.Search.TrialsExecuted {
				t.Fatalf("final heartbeat %+v disagrees with the result %+v", final, rep.Search)
			}
		})
	}
}

// TestWithObserverFanOut: WithObserver given once per observer hands
// every event to each of them in option order, and a nil observer is
// ignored. One worker keeps the trials on one goroutine, so the
// combined log must alternate between the two observers event by
// event.
func TestWithObserverFanOut(t *testing.T) {
	w, prog := compileWorkload(t, "fig1")
	type entry struct {
		who string
		e   heisendump.Event
	}
	var log []entry
	record := func(who string) heisendump.Observer {
		return heisendump.ObserverFunc(func(e heisendump.Event) { log = append(log, entry{who, e}) })
	}
	_, err := heisendump.NewCompiled(prog, w.Input,
		heisendump.WithWorkers(1),
		heisendump.WithObserver(record("a")),
		heisendump.WithObserver(nil),
		heisendump.WithObserver(record("b")),
	).Reproduce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 || len(log)%2 != 0 {
		t.Fatalf("%d logged events, want a positive even count", len(log))
	}
	for i := 0; i < len(log); i += 2 {
		a, b := log[i], log[i+1]
		if a.who != "a" || b.who != "b" || a.e != b.e {
			t.Fatalf("events %d and %d: %s %+v then %s %+v, want one event to a then b", i, i+1, a.who, a.e, b.who, b.e)
		}
	}
}

// TestSessionWorkersAgreeOnTable2 is the determinism acceptance check
// over all seven Table 2 bugs: with an uncancelled context,
// Session.Reproduce at Workers 4 produces Found, Schedule and Tries
// bit-identical to Workers 1, and both reproduce the bug.
func TestSessionWorkersAgreeOnTable2(t *testing.T) {
	for _, w := range heisendump.Bugs() {
		prog, err := w.Compile(true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var reps [2]*heisendump.Report
		for i, workers := range []int{1, 4} {
			s := heisendump.NewCompiled(prog, w.Input,
				heisendump.WithTrialBudget(4000),
				heisendump.WithWorkers(workers),
			)
			rep, err := s.Reproduce(context.Background())
			if err != nil {
				t.Fatalf("%s workers=%d: %v", w.Name, workers, err)
			}
			if rep.Partial {
				t.Fatalf("%s workers=%d: uncancelled run marked partial", w.Name, workers)
			}
			reps[i] = rep
		}
		ref, got := reps[0].Search, reps[1].Search
		if got.Found != ref.Found || got.Tries != ref.Tries || !reflect.DeepEqual(got.Schedule, ref.Schedule) {
			t.Fatalf("%s: workers=4 diverged from workers=1:\n  got  found=%v tries=%d %+v\n  want found=%v tries=%d %+v",
				w.Name, got.Found, got.Tries, got.Schedule, ref.Found, ref.Tries, ref.Schedule)
		}
	}
}

// TestLargeBoundSearchesLazily: a search's memory follows the ranks it
// claims, not the size of its combination space. mysql-1's search finds
// its schedule at the first tries; at bound 5 its worklist spans tens
// of millions of combinations, and at bound 40 Σ C(n,s) does not fit in
// an int. Both must find the bound-3 run's schedule at the same try,
// allocating under 4 MB a search.
func TestLargeBoundSearchesLazily(t *testing.T) {
	w, prog := compileWorkload(t, "mysql-1")
	ctx := context.Background()
	search := func(bound int) (*heisendump.SearchResult, uint64) {
		s := heisendump.NewCompiled(prog, w.Input, heisendump.WithBound(bound), heisendump.WithWorkers(1))
		fail, err := s.ProvokeFailure(ctx)
		if err != nil {
			t.Fatal(err)
		}
		an, err := s.Analyze(ctx, fail)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.Search(ctx, fail, an)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	ref, _ := search(3)
	for _, bound := range []int{5, 40} {
		got, alloc := search(bound)
		if got.Found != ref.Found || got.Tries != ref.Tries {
			t.Fatalf("bound %d: found=%v tries=%d, bound 3 found=%v tries=%d",
				bound, got.Found, got.Tries, ref.Found, ref.Tries)
		}
		if bound == 40 && got.CombinationsGenerated != math.MaxInt {
			t.Fatalf("bound 40: %d combinations, want the saturated math.MaxInt", got.CombinationsGenerated)
		}
		if alloc >= 4<<20 {
			t.Fatalf("bound %d: search allocated %d bytes, want under 4 MB", bound, alloc)
		}
		t.Logf("bound %d: %d combinations, tries %d, %d KB allocated", bound, got.CombinationsGenerated, got.Tries, alloc>>10)
	}
}
