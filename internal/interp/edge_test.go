package interp_test

import (
	"testing"
	"testing/quick"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/sched"
)

func mustCompile(t testing.TB, src string) *ir.Program {
	t.Helper()
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{InstrumentLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestStepLimitEnforced(t *testing.T) {
	cp := mustCompile(t, `
program spin;
global int x;
func main() {
spin:
    x = x + 1;
    goto spin;
}
`)
	m := interp.New(cp, nil)
	m.MaxSteps = 100
	res := sched.Run(m, sched.NewCooperative())
	if res.Crashed {
		t.Fatal("spin crashed")
	}
	if m.TotalSteps > 100 {
		t.Fatalf("executed %d steps past the limit", m.TotalSteps)
	}
	if res.StepLimited != true {
		t.Fatal("result not marked step-limited")
	}
}

func TestStepOnDoneThreadIsNoop(t *testing.T) {
	cp := mustCompile(t, `
program tiny;
func main() {
    output 1;
}
`)
	m := interp.New(cp, nil)
	sched.Run(m, sched.NewCooperative())
	if !m.Done() {
		t.Fatal("not done")
	}
	ok, err := m.Step(0)
	if err != nil || ok {
		t.Fatalf("stepping a done thread: ok=%v err=%v", ok, err)
	}
}

func TestStepAfterCrashIsNoop(t *testing.T) {
	cp := mustCompile(t, `
program cr;
global int a[1];
func main() {
    a[5] = 1;
    output 99;
}
`)
	m := interp.New(cp, nil)
	sched.Run(m, sched.NewCooperative())
	if !m.Crashed() {
		t.Fatal("no crash")
	}
	steps := m.TotalSteps
	ok, err := m.Step(0)
	if ok || err != nil {
		t.Fatalf("stepping a crashed machine: ok=%v err=%v", ok, err)
	}
	if m.TotalSteps != steps {
		t.Fatal("crashed machine advanced")
	}
	if len(m.Output) != 0 {
		t.Fatal("output after crash")
	}
}

func TestReleaseWithoutHoldCrashes(t *testing.T) {
	cp := mustCompile(t, `
program rel;
lock L;
func main() {
    release(L);
}
`)
	m := interp.New(cp, nil)
	res := sched.Run(m, sched.NewCooperative())
	if !res.Crashed {
		t.Fatal("stray release did not crash")
	}
}

func TestInputAppliedToScalarsAndArrays(t *testing.T) {
	cp := mustCompile(t, `
program inp;
global int s = 1;
global int arr[4];
global int out;
func main() {
    out = s + arr[2];
}
`)
	m := interp.New(cp, &interp.Input{
		Scalars: map[string]int64{"s": 40},
		Arrays:  map[string][]int64{"arr": {0, 0, 2, 0}},
	})
	sched.Run(m, sched.NewCooperative())
	if got := m.Global("out"); got.Num != 42 {
		t.Fatalf("out = %v, want 42", got)
	}
}

func TestSpawnArgumentsBoundByValue(t *testing.T) {
	cp := mustCompile(t, `
program spv;
global int seen;
global int knob = 5;
func main() {
    spawn child(knob);
    knob = 99;    // must not affect the child's bound argument
}
func child(int v) {
    seen = v;
}
`)
	m := interp.New(cp, nil)
	sched.Run(m, sched.NewCooperative())
	if got := m.Global("seen"); got.Num != 5 {
		t.Fatalf("seen = %v, want 5 (call-by-value)", got)
	}
}

func TestRecursionDepth(t *testing.T) {
	cp := mustCompile(t, `
program rec;
global int total;
func main() {
    var int r;
    r = sum(100);
    total = r;
}
func sum(int n) {
    var int rest;
    if (n == 0) {
        return 0;
    }
    rest = sum(n - 1);
    return n + rest;
}
`)
	m := interp.New(cp, nil)
	res := sched.Run(m, sched.NewCooperative())
	if res.Crashed {
		t.Fatalf("crashed: %v", res.Crash)
	}
	if got := m.Global("total"); got.Num != 5050 {
		t.Fatalf("total = %v, want 5050", got)
	}
}

func TestFrameIDsUnique(t *testing.T) {
	cp := mustCompile(t, `
program fid;
global int n;
func main() {
    f();
    f();
    f();
}
func f() {
    n = n + 1;
}
`)
	seen := map[int64]bool{}
	m := interp.New(cp, nil)
	hooks := &frameIDHook{seen: seen, t: t}
	m.Hooks = hooks
	sched.Run(m, sched.NewCooperative())
	if len(seen) < 4 { // main + 3 calls
		t.Fatalf("distinct frame ids: %d", len(seen))
	}
}

type frameIDHook struct {
	seen map[int64]bool
	t    *testing.T
}

func (h *frameIDHook) BeforeInstr(t *interp.Thread, pc ir.PC) {
	h.seen[t.Top().ID] = true
}
func (h *frameIDHook) OnBranch(*interp.Thread, ir.PC, bool) {}
func (h *frameIDHook) OnEnterFunc(*interp.Thread, int)      {}
func (h *frameIDHook) OnExitFunc(*interp.Thread, int)       {}
func (h *frameIDHook) OnRead(*interp.Thread, interp.VarID)  {}
func (h *frameIDHook) OnWrite(*interp.Thread, interp.VarID) {}

func TestVarIDStringAndShared(t *testing.T) {
	cp := mustCompile(t, `
program ids;
global int g;
global int a[4];
func main() {
    var ptr p = new(f);
    var int l = a[3];
    p.f = g + l;
}
`)
	cases := []struct {
		v      interp.VarID
		shared bool
		want   string
	}{
		{interp.VarID{Kind: interp.VGlobal, Slot: int32(cp.GlobalSlot("g"))}, true, "g"},
		{interp.VarID{Kind: interp.VArrayElem, Slot: int32(cp.ArraySlot("a")), Idx: 3}, true, "a[3]"},
		{interp.VarID{Kind: interp.VField, Slot: cp.BC.NameID("f"), Idx: 2}, true, "obj2.f"},
		{interp.VarID{Kind: interp.VLocal, Func: int32(cp.Main), Slot: 1, Idx: 9}, false, "l#9"},
		{interp.VarID{Kind: interp.VGlobal, Slot: 7}, true, "var?"},
	}
	for _, c := range cases {
		if c.v.Shared() != c.shared {
			t.Fatalf("%+v shared = %v", c.v, c.v.Shared())
		}
		if got := c.v.Format(cp); got != c.want {
			t.Fatalf("%+v formats as %q, want %q", c.v, got, c.want)
		}
	}
}

// TestQuickArithmetic: interpreter arithmetic agrees with Go semantics
// for +, -, *, / and % on arbitrary operands.
func TestQuickArithmetic(t *testing.T) {
	cp := mustCompile(t, `
program ar;
global int a;
global int b;
global int add;
global int sub;
global int mul;
global int div;
global int mod;
func main() {
    add = a + b;
    sub = a - b;
    mul = a * b;
    if (b != 0) {
        div = a / b;
        mod = a % b;
    }
}
`)
	f := func(a, b int32) bool {
		m := interp.New(cp, &interp.Input{Scalars: map[string]int64{"a": int64(a), "b": int64(b)}})
		res := sched.Run(m, sched.NewCooperative())
		if res.Crashed {
			return false
		}
		ok := m.Global("add").Num == int64(a)+int64(b) &&
			m.Global("sub").Num == int64(a)-int64(b) &&
			m.Global("mul").Num == int64(a)*int64(b)
		if b != 0 {
			ok = ok && m.Global("div").Num == int64(a)/int64(b) &&
				m.Global("mod").Num == int64(a)%int64(b)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickComparisons: comparison operators agree with Go.
func TestQuickComparisons(t *testing.T) {
	cp := mustCompile(t, `
program cmp;
global int a;
global int b;
global int lt;
global int le;
global int gt;
global int ge;
global int eq;
global int ne;
func main() {
    if (a < b)  { lt = 1; }
    if (a <= b) { le = 1; }
    if (a > b)  { gt = 1; }
    if (a >= b) { ge = 1; }
    if (a == b) { eq = 1; }
    if (a != b) { ne = 1; }
}
`)
	f := func(a, b int16) bool {
		m := interp.New(cp, &interp.Input{Scalars: map[string]int64{"a": int64(a), "b": int64(b)}})
		if res := sched.Run(m, sched.NewCooperative()); res.Crashed {
			return false
		}
		g := func(name string) bool { return m.Global(name).Num == 1 }
		return g("lt") == (a < b) && g("le") == (a <= b) && g("gt") == (a > b) &&
			g("ge") == (a >= b) && g("eq") == (a == b) && g("ne") == (a != b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashInfoString(t *testing.T) {
	c := &interp.CrashInfo{ThreadID: 3, PC: ir.PC{F: 1, I: 2}, Reason: "boom"}
	if c.String() == "" {
		t.Fatal("empty crash string")
	}
}

func TestDanglingHeapBehaviour(t *testing.T) {
	// Assigning null over the only pointer makes the object
	// unreachable but not dangling; reads through the old pointer value
	// are impossible in the language (no pointer arithmetic), so the
	// heap can only grow. Verify objects persist.
	cp := mustCompile(t, `
program hp;
global ptr p;
global int n;
func main() {
    var int i;
    for i = 1 .. 10 {
        p = new(v);
        p.v = i;
    }
    n = p.v;
}
`)
	m := interp.New(cp, nil)
	sched.Run(m, sched.NewCooperative())
	if len(m.Heap) != 10 {
		t.Fatalf("heap objects: %d, want 10", len(m.Heap))
	}
	if m.Global("n").Num != 10 {
		t.Fatalf("n = %v", m.Global("n"))
	}
}
