package heisendump_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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
// cancels the context from the Observer as soon as the search's folded
// (deterministic) try counter reaches budget. The fold emits one
// heartbeat per committed rank and checks the context before each
// commit, so the cancellation point — and with it the partial result —
// is a pure function of budget, not of worker scheduling.
func cancelAtTries(t *testing.T, name string, workers, budget int) (*heisendump.Report, error) {
	t.Helper()
	w, prog := compileWorkload(t, name)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := heisendump.ObserverFuncs{
		SearchFunc: func(p heisendump.SearchProgress) {
			if !p.Done && p.Tries >= budget {
				cancel()
			}
		},
	}
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
// before the run starts, mid-analysis (triggered from a Stage event),
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
		obs := heisendump.ObserverFuncs{
			StageFunc: func(s heisendump.Stage) {
				if s == heisendump.StageDiff {
					cancel()
				}
			},
		}
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

// TestSessionObserverOrdering: one full run delivers the five analysis
// stages in StageAlign..StageCandidates order, then search heartbeats
// with monotone counters, ending in exactly one Done snapshot — at
// one worker and at four.
func TestSessionObserverOrdering(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			w, prog := compileWorkload(t, "mysql-3")
			var stages []heisendump.Stage
			var beats []heisendump.SearchProgress
			obs := heisendump.ObserverFuncs{
				StageFunc:  func(s heisendump.Stage) { stages = append(stages, s) },
				SearchFunc: func(p heisendump.SearchProgress) { beats = append(beats, p) },
			}
			s := heisendump.NewCompiled(prog, w.Input,
				heisendump.WithWorkers(workers),
				heisendump.WithObserver(obs),
			)
			rep, err := s.Reproduce(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Search.Found {
				t.Fatal("mysql-3 not reproduced")
			}

			want := []heisendump.Stage{
				heisendump.StageAlign, heisendump.StageAlignedDump, heisendump.StageDiff,
				heisendump.StagePrioritize, heisendump.StageCandidates,
			}
			if !reflect.DeepEqual(stages, want) {
				t.Fatalf("stage events %v, want %v", stages, want)
			}

			if len(beats) == 0 {
				t.Fatal("no search heartbeats")
			}
			for i, p := range beats {
				last := i == len(beats)-1
				if p.Done != last {
					t.Fatalf("heartbeat %d/%d: Done=%v", i, len(beats), p.Done)
				}
				if p.Combos != beats[0].Combos {
					t.Fatalf("heartbeat %d changed Combos: %d vs %d", i, p.Combos, beats[0].Combos)
				}
				if i == 0 {
					continue
				}
				prev := beats[i-1]
				if p.Committed < prev.Committed || p.Tries < prev.Tries ||
					p.Executed < prev.Executed || p.Steps < prev.Steps {
					t.Fatalf("heartbeat %d not monotone: %+v after %+v", i, p, prev)
				}
			}
			final := beats[len(beats)-1]
			if !final.Found || final.Tries != rep.Search.Tries || final.Executed != rep.Search.TrialsExecuted {
				t.Fatalf("final heartbeat %+v disagrees with the result %+v", final, rep.Search)
			}
		})
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
