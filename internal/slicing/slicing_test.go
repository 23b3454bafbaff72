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
func tracedRun(t testing.TB, src string) (*ir.Program, *ctrldep.ProgramDeps, []trace.Event) {
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
	return cp, ctrldep.AnalyzeProgram(cp), rec.Events
}

func TestSliceFollowsDataDependences(t *testing.T) {
	cp, pdeps, events := tracedRun(t, `
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
	_ = cp
	// Criterion: the final write to c.
	var cStep int64 = -1
	for _, e := range events {
		for _, w := range e.Writes {
			if w.Kind == interp.VGlobal && w.Name == "c" {
				cStep = e.Step
			}
		}
	}
	if cStep < 0 {
		t.Fatal("no write to c")
	}
	sl := slicing.Compute(cp, pdeps, events, cStep, nil)
	// a=1 and b=a+1 must be in the slice; unrelated writes must not.
	wantIn, wantOut := 0, 0
	for _, e := range events {
		for _, w := range e.Writes {
			if w.Kind != interp.VGlobal {
				continue
			}
			switch w.Name {
			case "a", "b":
				if sl.InSlice(e.Step) {
					wantIn++
				} else {
					t.Fatalf("write to %s at step %d not in slice", w.Name, e.Step)
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
	var aStep, bStep int64 = -1, -1
	for _, e := range events {
		for _, w := range e.Writes {
			if w.Kind == interp.VGlobal && w.Name == "a" {
				aStep = e.Step
			}
			if w.Kind == interp.VGlobal && w.Name == "b" {
				bStep = e.Step
			}
		}
	}
	if sl.Distance[bStep] >= sl.Distance[aStep] {
		t.Fatalf("distance(b)=%d should be < distance(a)=%d", sl.Distance[bStep], sl.Distance[aStep])
	}
}

func TestSliceFollowsControlDependences(t *testing.T) {
	cp, pdeps, events := tracedRun(t, `
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
	var rStep int64 = -1
	for _, e := range events {
		for _, w := range e.Writes {
			if w.Kind == interp.VGlobal && w.Name == "r" {
				rStep = e.Step
			}
		}
	}
	sl := slicing.Compute(cp, pdeps, events, rStep, nil)
	// The branch and, through it, the write p=1 must be in the slice.
	sawBranch, sawP := false, false
	for _, e := range events {
		if !sl.InSlice(e.Step) {
			continue
		}
		if e.IsBranch {
			sawBranch = true
		}
		for _, w := range e.Writes {
			if w.Kind == interp.VGlobal && w.Name == "p" {
				sawP = true
			}
		}
	}
	if !sawBranch || !sawP {
		t.Fatalf("branch in slice=%v, p-write in slice=%v", sawBranch, sawP)
	}
}

func TestSliceCriterionPresent(t *testing.T) {
	cp, pdeps, events := tracedRun(t, `
program crit;
global int x;
func main() {
    x = 1;
    x = x + 1;
}
`)
	sl := slicing.Compute(cp, pdeps, events, events[len(events)-1].Step, nil)
	if !sl.InSlice(sl.CriterionStep) {
		t.Fatal("criterion not in its own slice")
	}
	if sl.Distance[sl.CriterionStep] != 0 {
		t.Fatal("criterion distance not 0")
	}
	// A slice from a step outside the trace is empty.
	empty := slicing.Compute(cp, pdeps, events, 99999, nil)
	if len(empty.Distance) != 0 {
		t.Fatal("slice from unknown step not empty")
	}
}

func TestCollectAccessesTemporalOrder(t *testing.T) {
	cp, pdeps, events := tracedRun(t, `
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
	_, _ = cp, pdeps
	csv := []interp.VarID{{Kind: interp.VGlobal, Name: "x"}}
	last := events[len(events)-1].Step
	accs := slicing.CollectAccesses(events, csv, last, slicing.Temporal, nil)
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
	cp, pdeps, events := tracedRun(t, `
program bt;
global int x;
func main() {
    x = 1;
    x = 2;
    x = 3;
}
`)
	_, _ = cp, pdeps
	csv := []interp.VarID{{Kind: interp.VGlobal, Name: "x"}}
	// Align between the first and second write.
	var firstWrite int64 = -1
	for _, e := range events {
		if len(e.Writes) > 0 && e.Writes[0].Name == "x" {
			firstWrite = e.Step
			break
		}
	}
	accs := slicing.CollectAccesses(events, csv, firstWrite, slicing.Temporal, nil)
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
	cp, pdeps, events := tracedRun(t, `
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
	var outStep int64 = -1
	for _, e := range events {
		for _, w := range e.Writes {
			if w.Name == "out" {
				outStep = e.Step
			}
		}
	}
	sl := slicing.Compute(cp, pdeps, events, outStep, nil)
	csv := []interp.VarID{
		{Kind: interp.VGlobal, Name: "x"},
		{Kind: interp.VGlobal, Name: "y"},
	}
	accs := slicing.CollectAccesses(events, csv, outStep, slicing.Dependence, sl)
	var xPrio, yPrio int
	for _, a := range accs {
		if a.Var.Name == "x" && a.IsWrite {
			xPrio = a.Priority
		}
		if a.Var.Name == "y" && a.IsWrite {
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
