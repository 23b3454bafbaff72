package slicing_test

import (
	"testing"

	"heisendump/internal/ctrldep"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/sched"
	"heisendump/internal/slicing"
	"heisendump/internal/trace"
)

// tracedRun compiles and runs src deterministically with a recorder.
func tracedRun(t testing.TB, src string) (*ir.Program, *ctrldep.ProgramDeps, *trace.Recorder) {
	t.Helper()
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{InstrumentLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	m := interp.New(cp, nil)
	m.Hooks = rec
	res := sched.Run(m, sched.NewCooperative())
	if res.Deadlocked {
		t.Fatal("deadlock")
	}
	return cp, ctrldep.AnalyzeProgram(cp), rec
}

// lastWrite returns the last step that wrote the global name, or -1.
func lastWrite(prog *ir.Program, rec *trace.Recorder, name string) int64 {
	step := int64(-1)
	for i, e := range rec.Events {
		for _, w := range rec.Writes(i) {
			if rec.Vars[w] == global(prog, name) {
				step = e.Step
			}
		}
	}
	return step
}

// global returns the identity a run reports the named global by.
func global(prog *ir.Program, name string) interp.VarID {
	return interp.VarID{Kind: interp.VGlobal, Slot: int32(prog.GlobalSlot(name))}
}

func TestSliceFollowsDataDependences(t *testing.T) {
	cp, pdeps, rec := tracedRun(t, `
program dd;
global int a;
global int b;
global int c;
global int unrelated;
func main() {
    a = 1;
    unrelated = 42;
    b = a + 1;
    unrelated = unrelated + 1;
    c = b + 1;
}
`)
	// Criterion: the final write to c.
	cStep := lastWrite(cp, rec, "c")
	if cStep < 0 {
		t.Fatal("no write to c")
	}
	sl := slicing.Compute(cp, pdeps, rec, cStep)
	// a=1 and b=a+1 must be in the slice; unrelated writes must not.
	wantIn, wantOut := 0, 0
	for i, e := range rec.Events {
		for _, id := range rec.Writes(i) {
			w := rec.Vars[id]
			if w.Kind != interp.VGlobal {
				continue
			}
			switch name := w.Name(cp); name {
			case "a", "b":
				if sl.InSlice(e.Step) {
					wantIn++
				} else {
					t.Fatalf("write to %s at step %d not in slice", name, e.Step)
				}
			case "unrelated":
				if sl.InSlice(e.Step) {
					t.Fatalf("unrelated write at step %d in slice", e.Step)
				}
				wantOut++
			}
		}
	}
	if wantIn != 2 || wantOut != 2 {
		t.Fatalf("in=%d out=%d", wantIn, wantOut)
	}
	// Distances grow along the chain: dist(b-write) < dist(a-write).
	a, _ := sl.Distance(lastWrite(cp, rec, "a"))
	b, _ := sl.Distance(lastWrite(cp, rec, "b"))
	if b >= a {
		t.Fatalf("distance(b)=%d should be < distance(a)=%d", b, a)
	}
}

func TestSliceFollowsControlDependences(t *testing.T) {
	cp, pdeps, rec := tracedRun(t, `
program cd;
global int p;
global int r;
func main() {
    p = 1;
    if (p > 0) {
        r = 5;
    }
}
`)
	sl := slicing.Compute(cp, pdeps, rec, lastWrite(cp, rec, "r"))
	// The branch and, through it, the write p=1 must be in the slice.
	sawBranch := false
	for _, e := range rec.Events {
		if sl.InSlice(e.Step) && e.IsBranch {
			sawBranch = true
		}
	}
	if sawP := sl.InSlice(lastWrite(cp, rec, "p")); !sawBranch || !sawP {
		t.Fatalf("branch in slice=%v, p-write in slice=%v", sawBranch, sawP)
	}
}

func TestSliceCriterionPresent(t *testing.T) {
	cp, pdeps, rec := tracedRun(t, `
program crit;
global int x;
func main() {
    x = 1;
    x = x + 1;
}
`)
	events := rec.Events
	sl := slicing.Compute(cp, pdeps, rec, events[len(events)-1].Step)
	if !sl.InSlice(sl.CriterionStep) {
		t.Fatal("criterion not in its own slice")
	}
	if d, _ := sl.Distance(sl.CriterionStep); d != 0 {
		t.Fatal("criterion distance not 0")
	}
	// A slice from a step outside the trace is empty.
	empty := slicing.Compute(cp, pdeps, rec, 99999)
	for _, e := range events {
		if empty.InSlice(e.Step) {
			t.Fatal("slice from unknown step not empty")
		}
	}
}

func TestCollectAccessesTemporalOrder(t *testing.T) {
	cp, _, rec := tracedRun(t, `
program tmp;
global int x;
global int y;
func main() {
    x = 1;
    y = 1;
    x = 2;
    y = 2;
    x = 3;
}
`)
	csv := []interp.VarID{global(cp, "x")}
	last := rec.Events[len(rec.Events)-1].Step
	accs := slicing.CollectAccesses(rec, csv, last, slicing.Temporal, nil)
	if len(accs) != 3 {
		t.Fatalf("accesses: %d, want 3 (writes to x)", len(accs))
	}
	// Later accesses carry better (smaller) priorities.
	for i := 1; i < len(accs); i++ {
		if accs[i].Step > accs[i-1].Step && accs[i].Priority > accs[i-1].Priority {
			t.Fatalf("temporal priorities not decreasing with recency: %+v", accs)
		}
	}
	best := accs[0]
	for _, a := range accs {
		if a.Priority < best.Priority {
			best = a
		}
	}
	if best.Step != accs[len(accs)-1].Step {
		t.Fatalf("closest access should rank 1: %+v", accs)
	}
}

func TestCollectAccessesBottomAfterAlignPoint(t *testing.T) {
	cp, _, rec := tracedRun(t, `
program bt;
global int x;
func main() {
    x = 1;
    x = 2;
    x = 3;
}
`)
	csv := []interp.VarID{global(cp, "x")}
	// Align between the first and second write.
	var firstWrite int64 = -1
	for i, e := range rec.Events {
		if w := rec.Writes(i); len(w) > 0 && rec.Vars[w[0]] == csv[0] {
			firstWrite = e.Step
			break
		}
	}
	accs := slicing.CollectAccesses(rec, csv, firstWrite, slicing.Temporal, nil)
	if len(accs) != 3 {
		t.Fatalf("accesses: %d", len(accs))
	}
	bottom := 0
	for _, a := range accs {
		if a.Step > firstWrite {
			if a.Priority != slicing.PriorityBottom {
				t.Fatalf("post-align access has priority %d", a.Priority)
			}
			bottom++
		} else if a.Priority == slicing.PriorityBottom {
			t.Fatalf("pre-align access has bottom priority")
		}
	}
	if bottom != 2 {
		t.Fatalf("bottom accesses: %d, want 2", bottom)
	}
}

func TestCollectAccessesDependenceExcludesUnrelated(t *testing.T) {
	cp, pdeps, rec := tracedRun(t, `
program dep;
global int x;
global int y;
global int out;
func main() {
    x = 1;      // relevant: out depends on it
    y = 7;      // CSV access but irrelevant to the criterion
    out = x;
}
`)
	outStep := lastWrite(cp, rec, "out")
	sl := slicing.Compute(cp, pdeps, rec, outStep)
	csv := []interp.VarID{
		global(cp, "x"),
		global(cp, "y"),
	}
	accs := slicing.CollectAccesses(rec, csv, outStep, slicing.Dependence, sl)
	var xPrio, yPrio int
	for _, a := range accs {
		if a.Var != csv[a.CSV] {
			t.Fatalf("access to %v carries CSV %d (%v)", a.Var, a.CSV, csv[a.CSV])
		}
		if a.Var == csv[0] && a.IsWrite {
			xPrio = a.Priority
		}
		if a.Var == csv[1] && a.IsWrite {
			yPrio = a.Priority
		}
	}
	if xPrio == slicing.PriorityBottom {
		t.Fatal("x write should be in the slice")
	}
	if yPrio != slicing.PriorityBottom {
		t.Fatalf("y write should be bottom priority, got %d", yPrio)
	}
}

func TestHeuristicString(t *testing.T) {
	if slicing.Temporal.String() != "temporal" || slicing.Dependence.String() != "dep" {
		t.Fatal("heuristic names wrong")
	}
}
