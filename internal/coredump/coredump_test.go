package coredump_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/quick"

	"heisendump/internal/coredump"
	"heisendump/internal/gen"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/sched"
	"heisendump/internal/workloads"
)

func crashDump(t testing.TB, w *workloads.Workload) (*ir.Program, *coredump.Dump) {
	t.Helper()
	cp, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	m, st := sched.StressContext(context.Background(), func() *interp.Machine {
		mm := interp.New(cp, w.Input)
		mm.MaxSteps = 1_000_000
		return mm
	}, 3000)
	if m == nil {
		t.Skip("no crash provoked")
	}
	_ = st
	d, err := coredump.CaptureCrash(m)
	if err != nil {
		t.Fatal(err)
	}
	return cp, d
}

func TestCaptureCrashRequiresCrash(t *testing.T) {
	cp, err := workloads.ByName("fig1").Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(cp, workloads.ByName("fig1").Input)
	if _, err := coredump.CaptureCrash(m); err == nil {
		t.Fatal("CaptureCrash on a healthy machine should fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, d := crashDump(t, workloads.ByName("fig1"))
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	size, err := d.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != buf.Len() {
		t.Fatalf("Size() = %d, encoded %d", size, buf.Len())
	}
	d2, err := coredump.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Reason != d.Reason || d2.FailingThread != d.FailingThread || d2.PC != d.PC {
		t.Fatalf("round trip mismatch: %+v vs %+v", d2, d)
	}
	if len(d2.Threads) != len(d.Threads) || len(d2.Globals) != len(d.Globals) {
		t.Fatal("round trip lost state")
	}
	// Traversals of the original and the decoded dump must agree.
	la, lb := d.Traverse(), d2.Traverse()
	if len(la) != len(lb) {
		t.Fatalf("traversal lengths differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i].Path != lb[i].Path || la[i].Value != lb[i].Value {
			t.Fatalf("traversal differs at %d: %+v vs %+v", i, la[i], lb[i])
		}
	}
}

func TestDecodeGarbageFails(t *testing.T) {
	if _, err := coredump.Decode(strings.NewReader("not a dump")); err == nil {
		t.Fatal("decoding garbage should fail")
	}
}

func TestTraversalIsDeterministic(t *testing.T) {
	_, d := crashDump(t, workloads.ByName("apache-1"))
	a, b := d.Traverse(), d.Traverse()
	if len(a) != len(b) {
		t.Fatal("traversal nondeterministic in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traversal differs at %d", i)
		}
	}
}

func TestTraversalCoversRootsAndHeap(t *testing.T) {
	cp, err := ir.Compile(lang.MustParse(`
program trav;
global int g = 7;
global int arr[3];
global ptr head;
func main() {
    var int loc = 9;
    var ptr mine;
    head = new(val, next);
    head.val = 1;
    head.next = new(val, next);
    head.next.val = 2;
    mine = new(secret);
    mine.secret = 42;
    arr[6] = 0;   // crash with everything live
}
`), ir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(cp, nil)
	res := sched.Run(m, sched.NewCooperative())
	if !res.Crashed {
		t.Fatal("expected crash")
	}
	d, err := coredump.CaptureCrash(m)
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]coredump.Location{}
	for _, loc := range d.Traverse() {
		paths[loc.Path] = loc
	}
	for _, want := range []string{"g", "arr[0]", "arr[2]", "head", "head->val", "head->next->val", "local:main.loc", "local:main.mine->secret"} {
		if _, ok := paths[want]; !ok {
			t.Errorf("path %q missing from traversal", want)
		}
	}
	if loc := paths["head->next->val"]; loc.Value.Num != 2 || !loc.Shared {
		t.Fatalf("head->next->val = %+v", loc)
	}
	if loc := paths["local:main.loc"]; loc.Shared {
		t.Fatal("stack local classified shared")
	}
	if loc := paths["local:main.mine->secret"]; !loc.Shared {
		t.Fatal("heap object reached from a local must be shared")
	}
}

func TestTraversalHandlesHeapCycles(t *testing.T) {
	cp, err := ir.Compile(lang.MustParse(`
program cyc;
global ptr a;
global int boom[1];
func main() {
    var ptr b;
    a = new(next, v);
    b = new(next, v);
    a.next = b;
    b.next = a;   // cycle
    boom[5] = 1;
}
`), ir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(cp, nil)
	sched.Run(m, sched.NewCooperative())
	d, err := coredump.CaptureCrash(m)
	if err != nil {
		t.Fatal(err)
	}
	locs := d.Traverse() // must terminate
	if len(locs) == 0 {
		t.Fatal("empty traversal")
	}
}

func TestCompareFindsInjectedDifference(t *testing.T) {
	cp, d1 := crashDump(t, workloads.ByName("mysql-2"))
	_ = cp
	var buf bytes.Buffer
	if err := d1.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := coredump.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical dumps: no differences.
	res := coredump.Compare(d1, d2)
	if len(res.Diffs) != 0 {
		t.Fatalf("identical dumps differ: %+v", res.Diffs)
	}
	if res.VarsCompared == 0 || res.SharedCompared == 0 {
		t.Fatal("nothing compared")
	}
	// Inject a shared difference.
	for name, v := range d2.Globals {
		v.Num += 100
		d2.Globals[name] = v
		break
	}
	res = coredump.Compare(d1, d2)
	if len(res.CSVs()) != 1 {
		t.Fatalf("injected one CSV, found %d", len(res.CSVs()))
	}
}

func TestCompareNormalizesPointers(t *testing.T) {
	// Two runs allocating in different orders must not flag pointers
	// that are non-null in both dumps.
	cp, err := ir.Compile(lang.MustParse(`
program ptrs;
global ptr p;
global int boom[1];
func main() {
    var ptr junk;
    junk = new(x);
    p = new(x);
    boom[7] = 1;
}
`), ir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *coredump.Dump {
		m := interp.New(cp, nil)
		sched.Run(m, sched.NewCooperative())
		d, err := coredump.CaptureCrash(m)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := mk(), mk()
	// Force different object ids in b's pointer while keeping it
	// non-null: the comparison must still see equal values.
	for _, loc := range a.Traverse() {
		if loc.Path == "p" && loc.Value.Kind != interp.KPtr {
			t.Fatalf("p not a pointer: %+v", loc)
		}
	}
	res := coredump.Compare(a, b)
	for _, d := range res.Diffs {
		if d.Path == "p" {
			t.Fatalf("pointer identity leaked into comparison: %+v", d)
		}
	}
}

func TestCallingContext(t *testing.T) {
	_, d := crashDump(t, workloads.ByName("fig1"))
	ctx := d.CallingContext()
	if !strings.Contains(ctx, "->") && ctx == "" {
		t.Fatalf("calling context %q", ctx)
	}
	if d.Thread(d.FailingThread) == nil {
		t.Fatal("failing thread missing")
	}
	if d.Thread(999) != nil {
		t.Fatal("bogus thread id resolved")
	}
}

// TestQuickValueRoundTrip: value constructors preserve payloads.
func TestQuickValueRoundTrip(t *testing.T) {
	f := func(v int64, b bool, o uint32) bool {
		if interp.IntVal(v).Num != v {
			return false
		}
		if interp.BoolVal(b).Bool() != b {
			return false
		}
		p := interp.PtrVal(interp.ObjID(o))
		return p.Obj() == interp.ObjID(o) && (p.Bool() == (o != 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDumpSizePositive: every crash dump across many seeds
// serializes to a positive size and decodes back.
func TestQuickDumpSizePositive(t *testing.T) {
	cp, err := workloads.ByName("mysql-3").Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for seed := int64(0); seed < 120 && count < 25; seed++ {
		m := interp.New(cp, workloads.ByName("mysql-3").Input)
		m.MaxSteps = 1_000_000
		res := sched.Run(m, sched.NewRandom(seed))
		if !res.Crashed {
			continue
		}
		d, err := coredump.CaptureCrash(m)
		if err != nil {
			t.Fatal(err)
		}
		n, err := d.Size()
		if err != nil || n <= 0 {
			t.Fatalf("seed %d: size %d err %v", seed, n, err)
		}
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := coredump.Decode(&buf); err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count == 0 {
		t.Skip("no crashes")
	}
}

// TestSizeMatchesFreshEncoder pins Size, which adds a once-measured
// descriptor length to a pooled encoder's value message, against the
// size of a fresh encoder's full output: dumps of the Table 2 bugs and
// generated programs 1-20, each under 15 random interleavings, taken
// at four points of the run (from the initial state to the run's end).
func TestSizeMatchesFreshEncoder(t *testing.T) {
	type subject struct {
		prog  *ir.Program
		input *interp.Input
	}
	var subs []subject
	for _, w := range workloads.Bugs() {
		cp, err := w.Compile(true)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, subject{cp, w.Input})
	}
	for seed := int64(1); seed <= 20; seed++ {
		p := gen.Generate(seed)
		cp, err := p.Compile(true)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, subject{cp, p.Input})
	}
	dumps := 0
	for _, sub := range subs {
		for seed := int64(0); seed < 15; seed++ {
			for _, budget := range []int64{0, 40, 200, 1_000_000} {
				m := interp.New(sub.prog, sub.input)
				m.MaxSteps = 1_000_000
				sched.BoundedRunContext(context.Background(), m, sched.NewRandom(seed), budget)
				d := coredump.Capture(m, 0, ir.PC{}, "size oracle")
				var buf bytes.Buffer
				if err := d.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				n, err := d.Size()
				if err != nil || n != buf.Len() {
					t.Fatalf("%s seed %d budget %d: Size() = %d, %v; fresh encoder wrote %d bytes",
						sub.prog.Name, seed, budget, n, err, buf.Len())
				}
				dumps++
			}
		}
	}
	t.Logf("%d dumps sized", dumps)
}
