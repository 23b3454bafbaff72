package sched_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"heisendump/internal/interp"
	"heisendump/internal/sched"
)

// The typed-outcome surface exists for generated pathologies: a
// machine-manufactured program that deadlocks or livelocks, or a
// scheduler that names a thread the machine cannot step, must yield a
// diagnosis, not a silently short run. These tests pin the
// classification.

// listChooser names the threads of its list in turn, then yields. Its
// horizon is 0, so the Runner asks it before and after every sync
// operation.
type listChooser struct{ tids []int }

func (c *listChooser) Next(*interp.Machine) int {
	if len(c.tids) == 0 {
		return -1
	}
	tid := c.tids[0]
	c.tids = c.tids[1:]
	return tid
}

func (c *listChooser) Horizon(*interp.Machine, int) int { return 0 }

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
	// main runs to its end (two spawns, no sync operation); then t1
	// and t2 interleave to the inversion. Each burst stops at a sync
	// operation, and an acquire of a held lock blocks its thread, after
	// which both threads wait on each other and the chooser yields.
	res := sched.Run(m, &listChooser{tids: []int{
		0,    // spawn t1, spawn t2, return from main
		1, 1, // t1: acquire(A); x
		2, 2, // t2: acquire(B); x
		1, // t1: acquire(B) observes held -> blocks
		2, // t2: acquire(A) observes held -> blocks
	}})
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

// holder keeps a lock held while another thread wants it, so a
// chooser that names the blocked thread twice names a thread that
// cannot step.
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

// requireUnsteppable runs holder under a listChooser of tids, whose
// last id names a thread the machine cannot step, and requires the run
// to stop at that choice after steps counted steps with OutcomeError
// and a StepError naming the id: not a panic, a retry or a silently
// short run.
func requireUnsteppable(t *testing.T, tids []int, steps int64) {
	t.Helper()
	bad := tids[len(tids)-1]
	m := interp.New(compile(t, holder), nil)
	res := sched.Run(m, &listChooser{tids: tids})
	if got := res.Outcome(); got != sched.OutcomeError {
		t.Fatalf("choosing %d: Outcome() = %v, want error (%+v)", bad, got, res)
	}
	if res.Steps != steps {
		t.Fatalf("choosing %d: stopped after %d steps, want %d", bad, res.Steps, steps)
	}
	err := res.Err()
	if !errors.Is(err, res.StepError) || !strings.Contains(fmt.Sprint(err), fmt.Sprintf("chose thread %d,", bad)) {
		t.Fatalf("choosing %d: Err() = %v", bad, err)
	}
}

// TestStalledReplayIsTyped: a replayed schedule that names a blocked
// thread stalls at that choice, and the run says so with a typed
// OutcomeError. main acquires L and runs up to its release; w's
// acquire observes the held lock and blocks (a counted step), so
// naming w again names a blocked thread.
func TestStalledReplayIsTyped(t *testing.T) {
	requireUnsteppable(t, []int{0, 0, 1, 1}, 4)
}

// TestOutOfRangeScheduleStallsInsteadOfPanicking: a corrupted or stale
// schedule can name a thread that does not exist; the run stops at
// that choice with OutcomeError, not an index panic. A corrupt
// negative id must not masquerade as the chooser's -1 yield.
func TestOutOfRangeScheduleStallsInsteadOfPanicking(t *testing.T) {
	requireUnsteppable(t, []int{0, 9}, 1)
	requireUnsteppable(t, []int{0, -2}, 1)
}

// plainScheduler is a Scheduler that is neither a *Random nor a
// Chooser.
type plainScheduler struct{}

func (plainScheduler) Next(*interp.Machine) int { return 0 }

// TestPlainSchedulerIsRefused: the Runner runs only a *Random and
// Choosers; any other scheduler ends the run with OutcomeError before
// a step.
func TestPlainSchedulerIsRefused(t *testing.T) {
	m := interp.New(compile(t, holder), nil)
	res := sched.Run(m, plainScheduler{})
	if res.Outcome() != sched.OutcomeError || res.Steps != 0 || res.Err() == nil {
		t.Fatalf("a plain scheduler ran: %v after %d steps (%v)", res.Outcome(), res.Steps, res.Err())
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

func TestYieldingChooserIsStopped(t *testing.T) {
	prog := compile(t, holder)
	m := interp.New(prog, nil)
	// One burst only: main acquires L, then the chooser yields with
	// threads still live.
	res := sched.Run(m, &listChooser{tids: []int{0}})
	if res.Outcome() != sched.OutcomeStopped {
		t.Fatalf("Outcome() = %v, want stopped", res.Outcome())
	}
	if res.Err() != nil {
		t.Fatalf("a scheduler-stopped run is the caller's policy, not an error: %v", res.Err())
	}
}
