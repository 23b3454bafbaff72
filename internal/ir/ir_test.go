package ir_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"heisendump/internal/ir"
	"heisendump/internal/lang"
)

func compile(t testing.TB, src string, instrument bool) *ir.Program {
	t.Helper()
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{InstrumentLoops: instrument})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestCompileBranchTargetsInRange(t *testing.T) {
	cp := compile(t, `
program rng;
global int x;
func main() {
    var int i;
    for i = 1 .. 3 {
        if (x > 0 || x < -5) {
            x = 1;
        } else {
            x = 2;
        }
        while (x > 0) {
            x = x - 1;
            if (x == 1) {
                break;
            }
            if (x == 2) {
                continue;
            }
        }
    }
}
`, true)
	for _, f := range cp.Funcs {
		n := len(f.Instrs)
		for i, in := range f.Instrs {
			switch in.Op {
			case ir.OpBranch:
				if in.True < 0 || in.True > n || in.False < 0 || in.False > n {
					t.Fatalf("%s@%d: branch targets %d/%d out of range", f.Name, i, in.True, in.False)
				}
			case ir.OpJump:
				if in.True < 0 || in.True > n {
					t.Fatalf("%s@%d: jump target %d out of range", f.Name, i, in.True)
				}
			}
		}
		if n == 0 || f.Instrs[n-1].Op != ir.OpReturn {
			t.Fatalf("%s: does not end with return", f.Name)
		}
	}
}

func TestLoopMetadata(t *testing.T) {
	cp := compile(t, `
program lm;
global int s;
func main() {
    var int i;
    var int w = 0;
    for i = 2 .. 5 {
        s = s + i;
    }
    while (w < 3) {
        w = w + 1;
    }
}
`, true)
	f := cp.Funcs[cp.FuncIndex("main")]
	if len(f.Loops) != 2 {
		t.Fatalf("loops: %d, want 2", len(f.Loops))
	}
	counted, while := f.Loops[0], f.Loops[1]
	if !counted.Counted || counted.CounterVar != "i" || counted.FromVar == "" {
		t.Fatalf("counted loop metadata: %+v", counted)
	}
	if while.Counted || while.CounterVar == "" {
		t.Fatalf("while loop metadata: %+v", while)
	}
	for _, l := range f.Loops {
		if !f.Instrs[l.HeadPC].IsLoopHead() {
			t.Fatalf("loop head %d is not a loop-head branch", l.HeadPC)
		}
		if f.LoopByHead(l.HeadPC) != l {
			t.Fatal("LoopByHead mismatch")
		}
	}
	if f.LoopByHead(-1) != nil {
		t.Fatal("LoopByHead(-1) should be nil")
	}
}

func TestUninstrumentedWhileHasNoCounter(t *testing.T) {
	src := `
program uw;
global int s;
func main() {
    var int w = 0;
    while (w < 3) {
        w = w + 1;
    }
    s = w;
}
`
	plain := compile(t, src, false)
	instr := compile(t, src, true)
	pf := plain.Funcs[plain.FuncIndex("main")]
	inf := instr.Funcs[instr.FuncIndex("main")]
	if pf.Loops[0].CounterVar != "" {
		t.Fatal("uninstrumented while loop has a counter")
	}
	if inf.Loops[0].CounterVar == "" {
		t.Fatal("instrumented while loop lacks a counter")
	}
	synthPlain, synthInstr := 0, 0
	for i := range pf.Instrs {
		if pf.Instrs[i].Synth {
			synthPlain++
		}
	}
	for i := range inf.Instrs {
		if inf.Instrs[i].Synth {
			synthInstr++
		}
	}
	if synthPlain != 0 {
		t.Fatalf("plain compile has %d synthetic instructions", synthPlain)
	}
	if synthInstr != 2 { // reset + increment
		t.Fatalf("instrumented compile has %d synthetic instructions, want 2", synthInstr)
	}
	if plain.Instrumented || !instr.Instrumented {
		t.Fatal("Instrumented flags wrong")
	}
}

func TestShortCircuitLoweringSharesGroup(t *testing.T) {
	cp := compile(t, `
program sc;
global int a;
global int b;
global int c;
global int s;
func main() {
    if (a > 0 || b > 0 || c > 0) {
        s = 1;
    }
    if (a > 0 && b > 0) {
        s = 2;
    }
}
`, false)
	f := cp.Funcs[cp.FuncIndex("main")]
	groups := map[int]int{}
	for i := range f.Instrs {
		if f.Instrs[i].Op == ir.OpBranch {
			groups[f.Instrs[i].PredGroup]++
		}
	}
	if len(groups) != 2 {
		t.Fatalf("predicate groups: %v, want 2", groups)
	}
	for g, n := range groups {
		if n != 3 && n != 2 {
			t.Fatalf("group %d has %d branches", g, n)
		}
		gi, ok := f.Groups[g]
		if !ok {
			t.Fatalf("group %d has no GroupInfo", g)
		}
		if gi.Then < 0 || gi.Then > len(f.Instrs) || gi.Else < 0 || gi.Else > len(f.Instrs) {
			t.Fatalf("group %d targets out of range: %+v", g, gi)
		}
	}
}

func TestLoopHeadsAreSingleBranches(t *testing.T) {
	// Loop conditions must not be lowered into chains: the EI loop
	// spine requires a single head predicate per loop.
	cp := compile(t, `
program lh;
global int a;
global int b;
func main() {
    var int i = 0;
    while (i < 5 && a + b < 100) {
        i = i + 1;
    }
}
`, true)
	f := cp.Funcs[cp.FuncIndex("main")]
	heads := 0
	for i := range f.Instrs {
		if f.Instrs[i].IsLoopHead() {
			heads++
		}
	}
	if heads != 1 {
		t.Fatalf("loop heads: %d, want 1", heads)
	}
}

func TestFormatPCAndHelpers(t *testing.T) {
	cp := compile(t, `
program hp;
func main() {
    output 1;
}
`, false)
	pc := ir.PC{F: 0, I: 0}
	if cp.FormatPC(pc) == "" || pc.String() == "" {
		t.Fatal("empty formatting")
	}
	if cp.FuncIndex("main") != 0 || cp.FuncIndex("ghost") != -1 {
		t.Fatal("FuncIndex wrong")
	}
	if cp.FuncOf(pc).Name != "main" {
		t.Fatal("FuncOf wrong")
	}
	if cp.InstrAt(pc).Op != ir.OpOutput {
		t.Fatal("InstrAt wrong")
	}
	if cp.NumInstrs() != len(cp.Funcs[0].Instrs) {
		t.Fatal("NumInstrs wrong")
	}
	exitPC := ir.PC{F: 0, I: len(cp.Funcs[0].Instrs)}
	if cp.FormatPC(exitPC) == "" {
		t.Fatal("exit PC formatting empty")
	}
	if cp.Main != 0 {
		t.Fatalf("Main = %d, want 0", cp.Main)
	}
	later := compile(t, `
program hp2;
func f() {
    output 1;
}
func main() {
    f();
}
`, false)
	if later.Main != 1 || later.Funcs[later.Main].Name != "main" {
		t.Fatalf("Main = %d, want main's index 1", later.Main)
	}
}

func TestOpString(t *testing.T) {
	for op := ir.OpAssign; op <= ir.OpOutput; op++ {
		if op.String() == "" {
			t.Fatalf("op %d has empty name", int(op))
		}
	}
	if ir.Op(99).String() != "op(99)" {
		t.Fatal("unknown op formatting")
	}
}

func TestGotoCompilesToJump(t *testing.T) {
	cp := compile(t, `
program gj;
global int x;
func main() {
    if (x > 0) {
        goto end;
    }
    x = 1;
end:
    x = x + 1;
}
`, false)
	f := cp.Funcs[cp.FuncIndex("main")]
	jumps := 0
	for i := range f.Instrs {
		if f.Instrs[i].Op == ir.OpJump {
			jumps++
		}
	}
	if jumps == 0 {
		t.Fatal("goto produced no jump")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile should panic on a bad program")
		}
	}()
	// Valid parse-wise, but duplicate label fails at compile time.
	p := lang.MustParse(`
program dl;
func main() {
l:
    output 1;
    goto l;
}
`)
	// Introduce the duplicate label behind the checker's back.
	fn := p.Func("main")
	fn.Body.Stmts = append(fn.Body.Stmts, &lang.LabelStmt{Name: "l"})
	ir.MustCompile(p, ir.Options{})
}

// TestFieldSetsDropRepeats: each `new` gets its own field list, with
// a repeated name kept once at its first position, also for a `new`
// that lists, twice over, all but the two names the others spell of
// the distinct names the checker allows.
func TestFieldSetsDropRepeats(t *testing.T) {
	var list, want []string
	for i := 0; i < lang.MaxFieldNames-2; i++ {
		list = append(list, fmt.Sprintf("f%d", i))
		if i > 0 {
			list = append(list, fmt.Sprintf("f%d", i-1))
		}
		want = append(want, fmt.Sprintf("f%d", i))
	}
	src := fmt.Sprintf(`
program wide;
global ptr p;
global ptr q;
global ptr r;
func main() {
    p = new(%s);
    q = new(b, a, b, a);
    r = new(b, a);
}
`, strings.Join(list, ", "))
	for _, instrument := range []bool{false, true} {
		bc := compile(t, src, instrument).BC
		if len(bc.FieldSets) != 3 {
			t.Fatalf("%d field sets, want one per new", len(bc.FieldSets))
		}
		names := func(set []int32) []string {
			var out []string
			for _, id := range set {
				out = append(out, bc.Names[id])
			}
			return out
		}
		if got := names(bc.FieldSets[0]); !reflect.DeepEqual(got, want) {
			t.Errorf("wide set = %v, want %v", got, want)
		}
		for _, set := range bc.FieldSets[1:] {
			if got := names(set); !reflect.DeepEqual(got, []string{"b", "a"}) {
				t.Errorf("set = %v, want [b a]", got)
			}
		}
	}
}
