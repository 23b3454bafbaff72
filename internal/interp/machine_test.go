package interp_test

import (
	"context"
	"testing"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/sched"
)

// fig1Src is the paper's Fig. 1 running example: the write to x inside
// the lock region and the read at `if (!x)` are not atomic, so T2's
// x=0 can land between them, sending T1 into F with a null pointer.
// T2 does a little unrelated work first so that, as in a real server,
// its racy write lands mid-run rather than at the very start.
const fig1Src = `
program fig1;

global int x;
global int busy;
global int a[8];
lock L;

func main() {
    spawn T1(4);
    spawn T2(3);
}

func T1(int n) {
    var int i;
    var ptr p;
    for i = 1 .. n {
        x = 0;
        p = new(val);
        acquire(L);
        if (a[i] > 0) {
            x = 1;
            p = null;
        }
        release(L);
        if (!x) {
            F(p);
        }
    }
}

func F(ptr q) {
    output q.val;
}

func T2(int d) {
    var int j;
    for j = 1 .. d {
        busy = busy + 1;
    }
    x = 0;
}
`

func compileFig1(t testing.TB, instrument bool) *ir.Program {
	t.Helper()
	prog, err := lang.Parse(fig1Src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := ir.Compile(prog, ir.Options{InstrumentLoops: instrument})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return cp
}

// fig1Input arms the race in iterations 2..4: wherever a[i] > 0 the
// pointer is nulled and only the x flag guards the dereference.
func fig1Input() *interp.Input {
	return &interp.Input{Arrays: map[string][]int64{"a": {0, 1, 1, 1, 1, 0, 0, 0}}}
}

func TestFig1PassesUnderCooperativeScheduler(t *testing.T) {
	cp := compileFig1(t, true)
	m := interp.New(cp, fig1Input())
	res := sched.Run(m, sched.NewCooperative())
	if res.Crashed {
		t.Fatalf("cooperative run crashed: %v", res.Crash)
	}
	if res.Deadlocked {
		t.Fatal("cooperative run deadlocked")
	}
	if !m.Done() {
		t.Fatal("cooperative run did not finish")
	}
}

func TestFig1CooperativeRunIsDeterministic(t *testing.T) {
	cp := compileFig1(t, true)
	run := func() *sched.Result {
		return sched.Runner{Record: true}.Run(interp.New(cp, fig1Input()), sched.NewCooperative())
	}
	a, b := run(), run()
	if a.Steps != b.Steps {
		t.Fatalf("step counts differ: %d vs %d", a.Steps, b.Steps)
	}
	for i := range a.Schedule {
		if a.Schedule[i] != b.Schedule[i] {
			t.Fatalf("schedules differ at step %d", i)
		}
	}
}

func TestFig1CrashesUnderSomeRandomInterleaving(t *testing.T) {
	cp := compileFig1(t, true)
	m, stress := sched.StressContext(context.Background(), func() *interp.Machine {
		return interp.New(cp, fig1Input())
	}, 2000)
	if m == nil {
		t.Fatal("no interleaving provoked the Fig. 1 race in 2000 attempts")
	}
	if m.Crash == nil || m.Crash.Reason != "null pointer dereference" {
		t.Fatalf("unexpected crash: %+v", m.Crash)
	}
	fIdx := cp.FuncIndex("F")
	if m.Crash.PC.F != fIdx {
		t.Fatalf("crash at %v, want inside F (func %d)", m.Crash.PC, fIdx)
	}
	if stress.Attempts <= 0 {
		t.Fatal("stress reported no attempts")
	}
}

func TestFig1ReplayReproducesCrash(t *testing.T) {
	cp := compileFig1(t, true)
	m, stress := sched.StressContext(context.Background(), func() *interp.Machine {
		return interp.New(cp, fig1Input())
	}, 2000)
	if m == nil {
		t.Skip("race not provoked")
	}
	// StressContext does not record schedules: re-run the failing seed
	// under a recording Runner to obtain the interleaving.
	failing := sched.Runner{Record: true}.Run(interp.New(cp, fig1Input()), sched.NewRandom(stress.Seed))
	m2 := interp.New(cp, fig1Input())
	res := sched.Run(m2, sched.NewReplayer(failing.Schedule))
	if !res.Crashed {
		t.Fatal("replay of the failing schedule did not crash")
	}
	if res.Crash.PC != m.Crash.PC || res.Crash.Reason != m.Crash.Reason {
		t.Fatalf("replay crash %+v differs from original %+v", res.Crash, m.Crash)
	}
}

func TestLoopCounterTracksIterations(t *testing.T) {
	src := `
program loops;
global int done;
func main() {
    var int n = 0;
    while (n < 5) {
        n = n + 1;
    }
    done = n;
}
`
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{InstrumentLoops: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := interp.New(cp, nil)
	res := sched.Run(m, sched.NewCooperative())
	if res.Crashed {
		t.Fatalf("crashed: %v", res.Crash)
	}
	if got := m.Global("done"); got.Num != 5 {
		t.Fatalf("done = %v, want 5", got)
	}
}

func TestAcquireBlocksAndUnblocks(t *testing.T) {
	src := `
program locks;
global int order;
lock L;
func main() {
    acquire(L);
    spawn T(); // T blocks on L until main releases it
    order = 1;
    release(L);
}
func T() {
    acquire(L);
    order = 2;
    release(L);
}
`
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Under every interleaving, T cannot write before main releases.
	for seed := int64(0); seed < 50; seed++ {
		m := interp.New(cp, nil)
		res := sched.Run(m, sched.NewRandom(seed))
		if res.Crashed || res.Deadlocked {
			t.Fatalf("seed %d: crash=%v deadlock=%v", seed, res.Crash, res.Deadlocked)
		}
		if got := m.Global("order"); got.Num != 2 {
			t.Fatalf("seed %d: order = %v, want 2", seed, got)
		}
	}
}

func TestRecursiveAcquireCrashes(t *testing.T) {
	src := `
program rec;
lock L;
func main() {
    acquire(L);
    acquire(L);
}
`
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := interp.New(cp, nil)
	res := sched.Run(m, sched.NewCooperative())
	if !res.Crashed {
		t.Fatal("recursive acquire did not crash")
	}
	// The first acquisition is still held by the crashed main thread.
	if got := m.LockHolder("L"); got != 0 {
		t.Fatalf("LockHolder(L) = %d, want 0", got)
	}
	if got := m.LockHolder("nope"); got != -1 {
		t.Fatalf("LockHolder(nope) = %d, want -1", got)
	}
}

func TestCallResultBinding(t *testing.T) {
	src := `
program calls;
global int r;
func main() {
    var int v;
    v = add(2, 3);
    r = v;
}
func add(int a, int b) {
    return a + b;
}
`
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := interp.New(cp, nil)
	if res := sched.Run(m, sched.NewCooperative()); res.Crashed {
		t.Fatalf("crashed: %v", res.Crash)
	}
	if got := m.Global("r"); got.Num != 5 {
		t.Fatalf("r = %v, want 5", got)
	}
}

func TestHeapFieldReadWrite(t *testing.T) {
	src := `
program heapo;
global ptr head;
global int sum;
func main() {
    head = new(val, next);
    head.val = 7;
    head.next = new(val, next);
    head.next.val = 35;
    sum = head.val + head.next.val;
}
`
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := interp.New(cp, nil)
	if res := sched.Run(m, sched.NewCooperative()); res.Crashed {
		t.Fatalf("crashed: %v", res.Crash)
	}
	if got := m.Global("sum"); got.Num != 42 {
		t.Fatalf("sum = %v, want 42", got)
	}
}

func TestArrayOutOfBoundsCrashes(t *testing.T) {
	src := `
program oob;
global int a[3];
func main() {
    a[3] = 1;
}
`
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := interp.New(cp, nil)
	res := sched.Run(m, sched.NewCooperative())
	if !res.Crashed {
		t.Fatal("out-of-bounds write did not crash")
	}
}

func TestDivisionByZeroCrashes(t *testing.T) {
	src := `
program div0;
global int r;
func main() {
    var int z = 0;
    r = 10 / z;
}
`
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := interp.New(cp, nil)
	if res := sched.Run(m, sched.NewCooperative()); !res.Crashed {
		t.Fatal("division by zero did not crash")
	}
}

func TestGotoAndLabels(t *testing.T) {
	src := `
program gotos;
global int r;
func main() {
    var int i = 0;
    if (i == 0) {
        goto done;
    }
    r = 1;
done:
    r = r + 10;
}
`
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := interp.New(cp, nil)
	if res := sched.Run(m, sched.NewCooperative()); res.Crashed {
		t.Fatalf("crashed: %v", res.Crash)
	}
	if got := m.Global("r"); got.Num != 10 {
		t.Fatalf("r = %v, want 10 (goto must skip r=1)", got)
	}
}

func TestBreakContinue(t *testing.T) {
	src := `
program bc;
global int evens;
func main() {
    var int i;
    for i = 1 .. 100 {
        if (i > 10) {
            break;
        }
        if (i % 2 == 1) {
            continue;
        }
        evens = evens + 1;
    }
}
`
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := interp.New(cp, nil)
	if res := sched.Run(m, sched.NewCooperative()); res.Crashed {
		t.Fatalf("crashed: %v", res.Crash)
	}
	if got := m.Global("evens"); got.Num != 5 {
		t.Fatalf("evens = %v, want 5", got)
	}
}

func TestOutputCollected(t *testing.T) {
	src := `
program outs;
func main() {
    var int i;
    for i = 1 .. 3 {
        output i * i;
    }
}
`
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := interp.New(cp, nil)
	if res := sched.Run(m, sched.NewCooperative()); res.Crashed {
		t.Fatalf("crashed: %v", res.Crash)
	}
	want := []int64{1, 4, 9}
	if len(m.Output) != len(want) {
		t.Fatalf("output %v, want %v", m.Output, want)
	}
	for i := range want {
		if m.Output[i] != want[i] {
			t.Fatalf("output %v, want %v", m.Output, want)
		}
	}
}
