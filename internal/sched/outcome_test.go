package sched_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"heisendump/internal/interp"
	"heisendump/internal/sched"
)

// The typed-outcome surface exists for generated pathologies: a
// machine-manufactured program (or a stale witness schedule) that
// deadlocks, livelocks or stalls must yield a diagnosis, not a
// silently short run. These tests pin the classification.

// abba is the classic lock-order-inversion deadlock: t1 takes A then
// B, t2 takes B then A.
const abba = `
program abba;

global int x;
lock A;
lock B;

func main() {
    spawn t1();
    spawn t2();
}

func t1() {
    acquire(A);
    x = x + 1;
    acquire(B);
    x = x + 1;
    release(B);
    release(A);
}

func t2() {
    acquire(B);
    x = x + 1;
    acquire(A);
    x = x + 1;
    release(A);
    release(B);
}
`

func TestDeadlockOutcomeIsTyped(t *testing.T) {
	prog := compile(t, abba)
	m := interp.New(prog, nil)
	// main: two spawns; then interleave t1/t2 to the inversion. Each
	// acquire-of-a-held-lock observation costs one extra step (the
	// thread blocks without advancing), after which both threads wait
	// on each other.
	schedule := []int{
		0, 0, 0, // spawn t1, spawn t2, return from main
		1, 1, // t1: acquire(A), x
		2, 2, // t2: acquire(B), x
		1, // t1: acquire(B) observes held -> blocks
		2, // t2: acquire(A) observes held -> blocks
	}
	res := sched.Run(m, sched.NewReplayer(schedule))
	if res.Crashed || res.Finished {
		t.Fatalf("expected deadlock, got crashed=%v finished=%v", res.Crashed, res.Finished)
	}
	if !res.Deadlocked {
		t.Fatalf("Deadlocked not set: %+v", res)
	}
	if got := res.Outcome(); got != sched.OutcomeDeadlocked {
		t.Fatalf("Outcome() = %v, want deadlocked", got)
	}
	err := res.Err()
	if !errors.Is(err, interp.ErrDeadlock) {
		t.Fatalf("Err() = %v, want wrapping interp.ErrDeadlock", err)
	}
	if res.Deadlock == nil {
		t.Fatal("no deadlock diagnosis attached")
	}
	if len(res.Deadlock.Waiters) != 2 {
		t.Fatalf("waiters = %+v, want both threads", res.Deadlock.Waiters)
	}
	if len(res.Deadlock.Cycle) != 2 {
		t.Fatalf("cycle = %v, want the 2-thread inversion cycle", res.Deadlock.Cycle)
	}
	for _, w := range res.Deadlock.Waiters {
		if w.Holder < 0 {
			t.Fatalf("waiter %+v has no holder", w)
		}
	}
}

func TestDeadlockDiagnosisUnderRandomScheduling(t *testing.T) {
	prog := compile(t, abba)
	// Some random seed provokes the inversion; the Runner must
	// diagnose it the same way stress testing would see it.
	for seed := int64(0); seed < 200; seed++ {
		m := interp.New(prog, nil)
		res := sched.Runner{MaxSteps: 10000}.Run(m, sched.NewRandom(seed))
		if res.Deadlocked {
			if res.Deadlock == nil || len(res.Deadlock.Cycle) == 0 {
				t.Fatalf("seed %d: deadlock without cycle diagnosis: %+v", seed, res.Deadlock)
			}
			if err := res.Err(); !errors.Is(err, interp.ErrDeadlock) {
				t.Fatalf("seed %d: Err() = %v", seed, err)
			}
			return
		}
	}
	t.Fatal("no seed provoked the ABBA deadlock")
}

// spinner never terminates: an uncounted loop with a constant-true
// predicate, the livelock shape a generator bug could emit.
const spinner = `
program spinner;

global int x;

func main() {
    spawn spin();
}

func spin() {
    while (true) {
        x = x + 1;
    }
}
`

func TestLivelockOutcomeIsStepLimited(t *testing.T) {
	prog := compile(t, spinner)
	m := interp.New(prog, nil)
	m.MaxSteps = 3000 // the machine's livelock guard
	res := sched.Run(m, sched.NewCooperative())
	if !res.StepLimited || res.Budgeted {
		t.Fatalf("expected a machine-step-limited run, got %+v", res)
	}
	if got := res.Outcome(); got != sched.OutcomeStepLimited {
		t.Fatalf("Outcome() = %v, want step-limited", got)
	}
	if err := res.Err(); !errors.Is(err, interp.ErrStepLimit) {
		t.Fatalf("Err() = %v, want wrapping interp.ErrStepLimit", err)
	}
}

func TestRunnerBudgetIsBenignStop(t *testing.T) {
	// The Runner's own MaxSteps is a caller-chosen budget
	// (BoundedRunContext's exact dump-capture stop), not a livelock: it
	// classifies as a benign stop with a nil Err.
	prog := compile(t, spinner)
	m := interp.New(prog, nil)
	res := sched.Runner{MaxSteps: 500}.Run(m, sched.NewCooperative())
	if !res.StepLimited || !res.Budgeted {
		t.Fatalf("expected a budgeted stop, got %+v", res)
	}
	if got := res.Outcome(); got != sched.OutcomeStopped {
		t.Fatalf("Outcome() = %v, want stopped", got)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("a budgeted stop is the caller's policy, not an error: %v", err)
	}
}

// holder keeps a lock held while another thread wants it, so a replay
// schedule that names the blocked thread twice stalls.
const holder = `
program holder;

global int x;
lock L;

func main() {
    acquire(L);
    spawn w();
    x = x + 1;
    release(L);
}

func w() {
    acquire(L);
    x = x + 1;
    release(L);
}
`

func TestStalledReplayIsTyped(t *testing.T) {
	prog := compile(t, holder)
	m := interp.New(prog, nil)
	// main acquires and spawns; w's first acquire observes the held
	// lock and blocks (a counted step); naming w again while main
	// still holds L is a stall — the schedule does not apply.
	schedule := []int{0, 0, 1, 1}
	res := sched.Run(m, sched.NewReplayer(schedule))
	if !res.Stalled {
		t.Fatalf("expected a stalled replay, got %+v", res)
	}
	if res.StallThread != 1 {
		t.Fatalf("StallThread = %d, want 1", res.StallThread)
	}
	if got := res.Outcome(); got != sched.OutcomeStalled {
		t.Fatalf("Outcome() = %v, want stalled", got)
	}
	if err := res.Err(); !errors.Is(err, sched.ErrStalled) {
		t.Fatalf("Err() = %v, want wrapping ErrStalled", err)
	}
}

func TestOutOfRangeScheduleStallsInsteadOfPanicking(t *testing.T) {
	// A corrupted or stale replay schedule can name a thread that does
	// not exist yet; the Runner must surface the typed stall, not an
	// index panic (corpus files are hand-editable).
	prog := compile(t, holder)
	m := interp.New(prog, nil)
	res := sched.Run(m, sched.NewReplayer([]int{0, 9}))
	if !res.Stalled || res.StallThread != 9 {
		t.Fatalf("expected a stall on thread 9, got %+v", res)
	}
	if err := res.Err(); !errors.Is(err, sched.ErrStalled) {
		t.Fatalf("Err() = %v, want wrapping ErrStalled", err)
	}

	// A corrupt negative id must not masquerade as the scheduler's -1
	// yield sentinel.
	m2 := interp.New(prog, nil)
	res2 := sched.Run(m2, sched.NewReplayer([]int{0, -2}))
	if !res2.Stalled || res2.StallThread != -2 {
		t.Fatalf("expected a stall on thread -2, got %+v", res2)
	}
}

func TestCancelledRunReportsDeadlineCause(t *testing.T) {
	prog := compile(t, spinner)
	m := interp.New(prog, nil)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res := sched.Runner{Ctx: ctx}.Run(m, sched.NewCooperative())
	if !res.Cancelled {
		t.Fatalf("expected a cancelled run, got %+v", res)
	}
	if err := res.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want wrapping context.DeadlineExceeded", err)
	}
}

func TestCompletedAndCrashedRunsHaveNilErr(t *testing.T) {
	prog := compile(t, holder)
	m := interp.New(prog, nil)
	res := sched.Run(m, sched.NewCooperative())
	if res.Outcome() != sched.OutcomeDone || res.Err() != nil || !res.Finished {
		t.Fatalf("cooperative run of a clean program: %v / %v", res.Outcome(), res.Err())
	}

	crash := compile(t, `
program boom;
func main() {
    var ptr p;
    p.x = 1;
}
`)
	m2 := interp.New(crash, nil)
	res2 := sched.Run(m2, sched.NewCooperative())
	if res2.Outcome() != sched.OutcomeCrashed || res2.Err() != nil {
		t.Fatalf("crashed run: %v / %v", res2.Outcome(), res2.Err())
	}
}

func TestExhaustedReplayerIsStopped(t *testing.T) {
	prog := compile(t, holder)
	m := interp.New(prog, nil)
	// One step only: the schedule runs out with threads still live.
	res := sched.Run(m, sched.NewReplayer([]int{0}))
	if res.Outcome() != sched.OutcomeStopped {
		t.Fatalf("Outcome() = %v, want stopped", res.Outcome())
	}
	if res.Err() != nil {
		t.Fatalf("a scheduler-stopped run is the caller's policy, not an error: %v", res.Err())
	}
}
