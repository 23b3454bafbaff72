package index_test

import (
	"testing"

	"heisendump/internal/coredump"
	"heisendump/internal/ctrldep"
	"heisendump/internal/index"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/sched"
	"heisendump/internal/trace"
	"heisendump/internal/workloads"
)

func compileSrc(t testing.TB, src string) (*ir.Program, *ctrldep.ProgramDeps) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := ir.Compile(prog, ir.Options{InstrumentLoops: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return cp, ctrldep.AnalyzeProgram(cp)
}

// crashWithTracker runs the program under a random schedule with the
// online EI tracker attached until it crashes, returning the dump and
// the tracker's canonical index at the crash point.
func crashWithTracker(t *testing.T, cp *ir.Program, pdeps *ctrldep.ProgramDeps,
	input *interp.Input, maxSeeds int) (*coredump.Dump, *index.Index) {
	t.Helper()
	for seed := 0; seed < maxSeeds; seed++ {
		tr := index.NewTracker(cp, pdeps)
		m := interp.New(cp, input)
		m.MaxSteps = 1_000_000
		m.Hooks = tr
		res := sched.Run(m, sched.NewRandom(int64(seed)))
		if !res.Crashed {
			continue
		}
		dump, err := coredump.CaptureCrash(m)
		if err != nil {
			t.Fatalf("capture: %v", err)
		}
		return dump, tr.CurrentCanonical(m.Crash.ThreadID, m.Crash.PC)
	}
	t.Skipf("no crash in %d seeds", maxSeeds)
	return nil, nil
}

// TestReverseMatchesOnlineTracker is the central correctness check of
// Algorithm 1: for every bug workload and many failing interleavings,
// the index reverse engineered from the dump alone must equal the
// index the online tracker maintained during the run.
func TestReverseMatchesOnlineTracker(t *testing.T) {
	for _, w := range append(workloads.Bugs(), workloads.ByName("fig1")) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cp, err := w.Compile(true)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			pdeps := ctrldep.AnalyzeProgram(cp)
			matched := 0
			for seed := 0; seed < 400; seed++ {
				tr := index.NewTracker(cp, pdeps)
				m := interp.New(cp, w.Input)
				m.MaxSteps = 1_000_000
				m.Hooks = tr
				res := sched.Run(m, sched.NewRandom(int64(seed)))
				if !res.Crashed {
					continue
				}
				dump, err := coredump.CaptureCrash(m)
				if err != nil {
					t.Fatalf("seed %d: capture: %v", seed, err)
				}
				online := tr.CurrentCanonical(m.Crash.ThreadID, m.Crash.PC)
				reversed, err := index.Reverse(cp, pdeps, dump)
				if err != nil {
					t.Fatalf("seed %d: reverse: %v", seed, err)
				}
				if !reversed.Equal(online) {
					t.Fatalf("seed %d: index mismatch\n reversed: %s\n online:   %s",
						seed, reversed.Format(cp), online.Format(cp))
				}
				matched++
			}
			if matched == 0 {
				t.Skip("no crashing seed")
			}
			t.Logf("%d crashing interleavings, all indices match", matched)
		})
	}
}

// TestReverseRecoversLoopIterations checks the loop spine: a crash in
// iteration n yields n consecutive loop-head entries.
func TestReverseRecoversLoopIterations(t *testing.T) {
	cp, pdeps := compileSrc(t, `
program loopidx;
global int a[10];
func main() {
    var int i;
    for i = 1 .. 9 {
        a[i] = a[i - 1] + 1;
        if (a[i] > 4) {
            a[12] = 1;    // out-of-bounds crash in iteration 5
        }
    }
}
`)
	m := interp.New(cp, nil)
	res := sched.Run(m, sched.NewCooperative())
	if !res.Crashed {
		t.Fatal("expected crash")
	}
	dump, err := coredump.CaptureCrash(m)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Reverse(cp, pdeps, dump)
	if err != nil {
		t.Fatal(err)
	}
	// Expect: main, 5 x loop head (iteration 5), if-branch.
	loopEntries := 0
	for _, e := range idx.Entries {
		if e.Kind == index.KBranch && cp.Funcs[e.Func].Instrs[e.PC].IsLoopHead() {
			loopEntries++
		}
	}
	if loopEntries != 5 {
		t.Fatalf("expected 5 loop-head entries, got %d (%s)", loopEntries, idx.Format(cp))
	}
}

// TestReverseWhileLoopNeedsInstrumentation: without loop counters the
// index of a crash inside a while loop is unrecoverable.
func TestReverseWhileLoopNeedsInstrumentation(t *testing.T) {
	src := `
program wl;
global int a[4];
func main() {
    var int i = 0;
    while (i < 10) {
        a[i] = 1;    // crashes at i == 4
        i = i + 1;
    }
}
`
	prog := lang.MustParse(src)
	for _, instrumented := range []bool{true, false} {
		cp, err := ir.Compile(prog, ir.Options{InstrumentLoops: instrumented})
		if err != nil {
			t.Fatal(err)
		}
		pdeps := ctrldep.AnalyzeProgram(cp)
		m := interp.New(cp, nil)
		res := sched.Run(m, sched.NewCooperative())
		if !res.Crashed {
			t.Fatal("expected crash")
		}
		dump, err := coredump.CaptureCrash(m)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := index.Reverse(cp, pdeps, dump)
		if instrumented {
			if err != nil {
				t.Fatalf("instrumented: %v", err)
			}
			loops := 0
			for _, e := range idx.Entries {
				if e.Kind == index.KBranch && cp.Funcs[e.Func].Instrs[e.PC].IsLoopHead() {
					loops++
				}
			}
			if loops != 5 {
				t.Fatalf("expected 5 loop entries (iteration 5), got %d", loops)
			}
		} else if err == nil {
			t.Fatal("uninstrumented while loop should be unrecoverable")
		}
	}
}

// TestReverseAggregatableDisjunction reproduces the paper's Fig. 5(b):
// a crash under `if (p1 || p2)` yields one aggregated region entry.
func TestReverseAggregatableDisjunction(t *testing.T) {
	cp, pdeps := compileSrc(t, `
program agg;
global int a;
global int b;
global int r[2];
func main() {
    if (a > 0 || b > 0) {
        r[5] = 1;    // crash inside the aggregatable region
    }
}
`)
	m := interp.New(cp, &interp.Input{Scalars: map[string]int64{"b": 1}})
	res := sched.Run(m, sched.NewCooperative())
	if !res.Crashed {
		t.Fatal("expected crash")
	}
	dump, _ := coredump.CaptureCrash(m)
	idx, err := index.Reverse(cp, pdeps, dump)
	if err != nil {
		t.Fatal(err)
	}
	foundAgg := false
	for _, e := range idx.Entries {
		if e.Kind == index.KAgg && e.Taken {
			foundAgg = true
		}
	}
	if !foundAgg {
		t.Fatalf("no aggregated entry in %s", idx.Format(cp))
	}
}

// TestReverseNonAggregatableGoto reproduces the paper's Fig. 6: a
// crash at a goto-landing statement with non-aggregatable dependences
// resolves to the closest common single-dependence ancestor.
func TestReverseNonAggregatableGoto(t *testing.T) {
	cp, pdeps := compileSrc(t, `
program fig6;
global int p1;
global int p2;
global int p3;
global int r[2];
func main() {
    if (p1 > 0) {
        if (p2 > 0) {
            goto l26;
        }
        r[0] = 1;
        if (p3 > 0) {
            r[1] = 2;
        } else {
l26:
            r[9] = 3;    // statement 26: crash here
        }
    }
}
`)
	// Path 21T -> 22T -> goto -> 26 (p2 > 0 branch).
	m := interp.New(cp, &interp.Input{Scalars: map[string]int64{"p1": 1, "p2": 1}})
	res := sched.Run(m, sched.NewCooperative())
	if !res.Crashed {
		t.Fatal("expected crash")
	}
	dump, _ := coredump.CaptureCrash(m)
	idx, err := index.Reverse(cp, pdeps, dump)
	if err != nil {
		t.Fatal(err)
	}
	// The reverse-engineered index approximates with the common
	// ancestor (p1's true branch): expect main -> p1T only.
	if len(idx.Entries) != 2 {
		t.Fatalf("expected [main, p1T], got %s", idx.Format(cp))
	}
	if idx.Entries[0].Kind != index.KFunc {
		t.Fatalf("first entry not a function: %s", idx.Format(cp))
	}
	e := idx.Entries[1]
	if e.Kind != index.KBranch || !e.Taken {
		t.Fatalf("second entry not a taken branch: %s", idx.Format(cp))
	}
}

// TestAlignerExactOnIdenticalRun: aligning a failure index against an
// identical (replayed) failing run reaches the exact failure point.
func TestAlignerExactOnIdenticalRun(t *testing.T) {
	w := workloads.ByName("fig1")
	cp, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	pdeps := ctrldep.AnalyzeProgram(cp)
	dump, _ := crashWithTracker(t, cp, pdeps, w.Input, 500)
	idx, err := index.Reverse(cp, pdeps, dump)
	if err != nil {
		t.Fatal(err)
	}

	// Record the same failing schedule and align in its trace.
	var failSeed int64 = -1
	for seed := int64(0); seed < 500; seed++ {
		m := interp.New(cp, w.Input)
		res := sched.Run(m, sched.NewRandom(seed))
		if res.Crashed && res.Crash.PC == dump.PC {
			failSeed = seed
			break
		}
	}
	if failSeed < 0 {
		t.Skip("no matching seed")
	}
	rec := trace.NewRecorder()
	m := interp.New(cp, w.Input)
	m.Hooks = rec
	sched.Run(m, sched.NewRandom(failSeed))
	al := index.Align(cp, pdeps, idx, rec.Events)
	if al.Kind != index.AlignExact {
		t.Fatalf("alignment on the failing run itself = %v, want exact", al.Kind)
	}
}

// TestAlignerClosestOnDivergentRun: the Fig. 2 scenario — the passing
// run diverges at the guard predicate, and the aligner reports the
// closest alignment there.
func TestAlignerClosestOnDivergentRun(t *testing.T) {
	w := workloads.ByName("fig1")
	cp, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	pdeps := ctrldep.AnalyzeProgram(cp)
	dump, _ := crashWithTracker(t, cp, pdeps, w.Input, 500)
	idx, err := index.Reverse(cp, pdeps, dump)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	m := interp.New(cp, w.Input)
	m.Hooks = rec
	res := sched.Run(m, sched.NewCooperative())
	if res.Crashed {
		t.Fatal("cooperative run crashed")
	}
	al := index.Align(cp, pdeps, idx, rec.Events)
	if al.Kind == index.AlignNone {
		t.Fatal("no alignment found")
	}
	if al.Steps <= 0 {
		t.Fatal("aligned at step 0")
	}
}

// TestCanonicalizeCollapsesChains: raw short-circuit branch runs
// collapse to single aggregated entries.
func TestCanonicalizeCollapsesChains(t *testing.T) {
	cp, pdeps := compileSrc(t, `
program canon;
global int a;
global int b;
global int out;
func main() {
    if (a > 0 || b > 0) {
        out = 1;
    }
}
`)
	// Find the two branch instructions of main's disjunction.
	mainFn := cp.Funcs[cp.FuncIndex("main")]
	var pcs []int
	for i := range mainFn.Instrs {
		if mainFn.Instrs[i].Op == ir.OpBranch {
			pcs = append(pcs, i)
		}
	}
	if len(pcs) != 2 {
		t.Fatalf("expected 2 branches, got %d", len(pcs))
	}
	raw := []index.Entry{
		{Kind: index.KFunc, Func: 0},
		{Kind: index.KBranch, Func: 0, PC: pcs[0], Taken: false}, // a>0 false: chain continues
		{Kind: index.KBranch, Func: 0, PC: pcs[1], Taken: true},  // b>0 true: decided T
	}
	canon := index.Canonicalize(cp, pdeps, raw)
	if len(canon) != 2 {
		t.Fatalf("canonical form %v, want [func, agg]", canon)
	}
	if canon[1].Kind != index.KAgg || !canon[1].Taken {
		t.Fatalf("expected aggregated true entry, got %+v", canon[1])
	}
}

// TestTrackerBalancedOnCleanRun: after a run completes, every thread's
// index stack must be empty (all regions closed).
func TestTrackerBalancedOnCleanRun(t *testing.T) {
	for _, name := range []string{"fig1", "splash-fft", "splash-barnes"} {
		w := workloads.ByName(name)
		cp, err := w.Compile(true)
		if err != nil {
			t.Fatal(err)
		}
		pdeps := ctrldep.AnalyzeProgram(cp)
		tr := index.NewTracker(cp, pdeps)
		m := interp.New(cp, w.Input)
		m.Hooks = tr
		res := sched.Run(m, sched.NewCooperative())
		if res.Crashed {
			t.Fatalf("%s: crashed: %v", name, res.Crash)
		}
		for _, th := range m.Threads {
			cur := tr.Current(th.ID, ir.PC{})
			if len(cur.Entries) != 0 {
				t.Fatalf("%s: thread %d stack not empty: %s", name, th.ID, cur.Format(cp))
			}
		}
	}
}

// TestIndexFormatAndEqual exercises the small accessors.
func TestIndexFormatAndEqual(t *testing.T) {
	cp, _ := compileSrc(t, `
program fmtidx;
func main() {
    output 1;
}
`)
	a := &index.Index{Thread: 1, Entries: []index.Entry{{Kind: index.KFunc, Func: 0}}, Leaf: ir.PC{F: 0, I: 0}}
	b := &index.Index{Thread: 1, Entries: []index.Entry{{Kind: index.KFunc, Func: 0}}, Leaf: ir.PC{F: 0, I: 0}}
	if !a.Equal(b) {
		t.Fatal("identical indices not equal")
	}
	b.Thread = 2
	if a.Equal(b) {
		t.Fatal("different threads equal")
	}
	if a.Len() != 1 {
		t.Fatalf("Len = %d", a.Len())
	}
	if s := a.Format(cp); s == "" {
		t.Fatal("empty format")
	}
	_ = trace.NewRecorder() // keep the import for the helper below
}
