package sched_test

import (
	"context"
	"testing"
	"testing/quick"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/sched"
	"heisendump/internal/trace"
	"heisendump/internal/workloads"
)

func compile(t testing.TB, src string) *ir.Program {
	t.Helper()
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{InstrumentLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// traceSchedule runs m under s with a trace.Recorder as its hooks and
// returns the run and the thread of each of its steps.
func traceSchedule(m *interp.Machine, s sched.Scheduler) (*sched.Result, []int) {
	rec := trace.NewRecorder()
	m.Hooks = rec
	res := sched.Run(m, s)
	schedule := make([]int, len(rec.Events))
	for i := range rec.Events {
		schedule[i] = rec.Events[i].Thread
	}
	return res, schedule
}

const twoThreads = `
program two;
global int a;
global int b;
lock L;
func main() {
    spawn t1(5);
    spawn t2(5);
}
func t1(int n) {
    var int i;
    for i = 1 .. n {
        acquire(L);
        a = a + 1;
        release(L);
    }
}
func t2(int n) {
    var int i;
    for i = 1 .. n {
        acquire(L);
        b = b + 1;
        release(L);
    }
}
`

func TestCooperativeRunsCurrentUntilBlocked(t *testing.T) {
	cp := compile(t, twoThreads)
	m := interp.New(cp, nil)
	res, schedule := traceSchedule(m, sched.NewCooperative())
	if res.Crashed || res.Deadlocked {
		t.Fatalf("bad run: %+v", res)
	}
	// The schedule must be a sequence of contiguous runs: once a thread
	// yields for good (done), it never reappears (no blocking happens
	// in this program under cooperative order).
	seen := map[int]bool{}
	last := -1
	for _, tid := range schedule {
		if tid != last && seen[tid] {
			t.Fatalf("thread %d resumed after yielding; schedule %v", tid, schedule)
		}
		if tid != last {
			seen[tid] = true
			last = tid
		}
	}
}

// TestQuickRandomSchedulesAlwaysComplete: for any seed, the two-thread
// lock program completes with the same final state (the program is
// race-free).
// countingChooser counts the Runner's consultations of a Chooser.
type countingChooser struct {
	sched.Chooser
	asked int
}

func (c *countingChooser) Next(m *interp.Machine) int {
	c.asked++
	return c.Chooser.Next(m)
}

// TestCooperativeAskedOncePerThread: the cooperative scheduler never
// switches at a sync operation, so on each Table 2 bug's passing run
// the Runner asks it for a thread only when the running thread
// finishes: once per thread.
func TestCooperativeAskedOncePerThread(t *testing.T) {
	for _, w := range workloads.Bugs() {
		cp, err := w.Compile(true)
		if err != nil {
			t.Fatal(err)
		}
		m := interp.New(cp, w.Input)
		c := &countingChooser{Chooser: sched.NewCooperative()}
		if res := sched.Run(m, c); res.Outcome() != sched.OutcomeDone {
			t.Fatalf("%s: passing run ended %v", w.Name, res.Outcome())
		}
		if c.asked != len(m.Threads) {
			t.Fatalf("%s: cooperative scheduler asked %d times over %d threads", w.Name, c.asked, len(m.Threads))
		}
	}
}

func TestQuickRandomSchedulesAlwaysComplete(t *testing.T) {
	cp := compile(t, twoThreads)
	f := func(seed int64) bool {
		m := interp.New(cp, nil)
		m.MaxSteps = 100_000
		res := sched.Run(m, sched.NewRandom(seed))
		if res.Crashed || res.Deadlocked {
			return false
		}
		return m.Global("a").Num == 5 && m.Global("b").Num == 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReplayReproducesState: a random run's schedule, taken from
// its trace and stepped one Machine.Step at a time, yields a
// step-identical run.
func TestQuickReplayReproducesState(t *testing.T) {
	cp := compile(t, twoThreads)
	f := func(seed int64) bool {
		m1 := interp.New(cp, nil)
		m1.MaxSteps = 100_000
		r1, schedule := traceSchedule(m1, sched.NewRandom(seed))
		m2 := interp.New(cp, nil)
		m2.MaxSteps = 100_000
		for _, tid := range schedule {
			if ok, err := m2.Step(tid); !ok || err != nil {
				return false
			}
		}
		if r1.Steps != m2.TotalSteps || r1.Crashed != m2.Crashed() {
			return false
		}
		return m1.Global("a") == m2.Global("a") && m1.Global("b") == m2.Global("b")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedRunStopsExactly(t *testing.T) {
	cp := compile(t, twoThreads)
	m := interp.New(cp, nil)
	res := sched.Runner{MaxSteps: 10}.Run(m, sched.NewCooperative())
	if res.Steps != 10 || !res.Budgeted {
		t.Fatalf("bounded run executed %d steps (budgeted %v), want 10", res.Steps, res.Budgeted)
	}
	if m.TotalSteps != 10 {
		t.Fatalf("machine steps %d", m.TotalSteps)
	}
}

func TestStressFindsFailingSeedDeterministically(t *testing.T) {
	w := workloads.ByName("fig1")
	cp, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *interp.Machine {
		m := interp.New(cp, w.Input)
		m.MaxSteps = 100_000
		return m
	}
	m1, s1 := sched.StressContext(context.Background(), mk, 2000)
	m2, s2 := sched.StressContext(context.Background(), mk, 2000)
	if m1 == nil || m2 == nil {
		t.Skip("no crash")
	}
	if s1.Seed != s2.Seed || s1.Attempts != s2.Attempts {
		t.Fatalf("stress nondeterministic: %+v vs %+v", s1, s2)
	}
	if m1.Crash.PC != m2.Crash.PC {
		t.Fatal("crash PCs differ across identical stress campaigns")
	}
}

func TestStressGivesUp(t *testing.T) {
	cp := compile(t, twoThreads) // race-free: never crashes
	m, st := sched.StressContext(context.Background(), func() *interp.Machine {
		mm := interp.New(cp, nil)
		mm.MaxSteps = 100_000
		return mm
	}, 25)
	if m != nil || st != nil {
		t.Fatal("stress crashed a race-free program")
	}
}

func TestDeadlockDetected(t *testing.T) {
	cp := compile(t, `
program dl;
lock A;
lock B;
global int x;
func main() {
    spawn left();
    spawn right();
}
func left() {
    acquire(A);
    x = x + 1;
    acquire(B);
    release(B);
    release(A);
}
func right() {
    acquire(B);
    x = x + 1;
    acquire(A);
    release(A);
    release(B);
}
`)
	deadlocks := 0
	for seed := int64(0); seed < 300; seed++ {
		m := interp.New(cp, nil)
		m.MaxSteps = 100_000
		res := sched.Run(m, sched.NewRandom(seed))
		if res.Deadlocked {
			deadlocks++
		}
	}
	if deadlocks == 0 {
		t.Fatal("classic AB/BA deadlock never detected in 300 seeds")
	}
}
