package interp_test

import (
	"errors"
	"testing"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/sched"
)

const seedSrc = `
program seeds;
global int n;
global bool flag;
global ptr p;
global int a[4];
global int eq;
func main() {
    if (flag == true) {
        eq = 1;
    }
}
`

func compileSeeds(t *testing.T) *ir.Program {
	t.Helper()
	cp, err := ir.Compile(lang.MustParse(seedSrc), ir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestBoolSeedNormalized: seeding a bool global with any non-zero
// value must produce BoolVal(true) — Value{KBool, Num:1} — not a
// malformed Value{KBool, Num:5} that fails equality against
// BoolVal(true).
func TestBoolSeedNormalized(t *testing.T) {
	cp := compileSeeds(t)
	m := interp.New(cp, &interp.Input{Scalars: map[string]int64{"flag": 5}})
	if got := m.Global("flag"); got != interp.BoolVal(true) {
		t.Fatalf("flag seeded with 5 = %+v, want %+v", got, interp.BoolVal(true))
	}
	if res := sched.Run(m, sched.NewCooperative()); res.Crashed {
		t.Fatalf("crashed: %v", res.Crash)
	}
	// The normalized seed must behave as true under ==.
	if got := m.Global("eq"); got.Num != 1 {
		t.Fatalf("flag == true did not hold for a seed of 5 (eq = %v)", got)
	}

	m = interp.New(cp, &interp.Input{Scalars: map[string]int64{"flag": 0}})
	if got := m.Global("flag"); got != interp.BoolVal(false) {
		t.Fatalf("flag seeded with 0 = %+v, want %+v", got, interp.BoolVal(false))
	}
}

// TestPtrSeedIgnored: an integer seed cannot forge a heap reference;
// the pointer global keeps its declared null.
func TestPtrSeedIgnored(t *testing.T) {
	cp := compileSeeds(t)
	m := interp.New(cp, &interp.Input{Scalars: map[string]int64{"p": 7}})
	if got := m.Global("p"); got != interp.Null {
		t.Fatalf("p seeded with 7 = %+v, want null", got)
	}
}

// TestArraySeedApplied: a well-formed array seed lands in the named
// array's slot storage.
func TestArraySeedApplied(t *testing.T) {
	cp := compileSeeds(t)
	m := interp.New(cp, &interp.Input{Arrays: map[string][]int64{"a": {9, 8, 7, 6}}})
	got := m.ArrayByName("a")
	want := []int64{9, 8, 7, 6}
	if len(got) != len(want) {
		t.Fatalf("a = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("a = %v, want %v", got, want)
		}
	}
	if m.ArrayByName("nope") != nil {
		t.Fatal("unknown array name returned storage")
	}
}

// TestValidateInput covers the typed rejection of every
// input/declaration disagreement, including the array-length mismatch
// that previously truncated or zero-padded silently.
func TestValidateInput(t *testing.T) {
	cp := compileSeeds(t)
	cases := []struct {
		name   string
		in     *interp.Input
		okWant bool
		entry  string
	}{
		{"nil input", nil, true, ""},
		{"valid", &interp.Input{
			Scalars: map[string]int64{"n": 3, "flag": 1},
			Arrays:  map[string][]int64{"a": {1, 2, 3, 4}},
		}, true, ""},
		{"unknown scalar", &interp.Input{Scalars: map[string]int64{"nope": 1}}, false, "nope"},
		{"array seeded as scalar", &interp.Input{Scalars: map[string]int64{"a": 1}}, false, "a"},
		{"pointer seed", &interp.Input{Scalars: map[string]int64{"p": 7}}, false, "p"},
		{"unknown array", &interp.Input{Arrays: map[string][]int64{"b": {1}}}, false, "b"},
		{"short array", &interp.Input{Arrays: map[string][]int64{"a": {1, 2}}}, false, "a"},
		{"long array", &interp.Input{Arrays: map[string][]int64{"a": {1, 2, 3, 4, 5}}}, false, "a"},
	}
	for _, tc := range cases {
		err := interp.ValidateInput(cp, tc.in)
		if tc.okWant {
			if err != nil {
				t.Fatalf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		var ie *interp.InputError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: error %v (%T), want *InputError", tc.name, err, err)
		}
		if ie.Name != tc.entry {
			t.Fatalf("%s: error names %q, want %q", tc.name, ie.Name, tc.entry)
		}
	}
}

// TestValidateInputLengths pins the Got/Want payload of an
// array-length mismatch, the fields a caller uses to report how the
// dump disagrees with the declaration.
func TestValidateInputLengths(t *testing.T) {
	cp := compileSeeds(t)
	err := interp.ValidateInput(cp, &interp.Input{Arrays: map[string][]int64{"a": {1, 2}}})
	var ie *interp.InputError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v, want *InputError", err)
	}
	if ie.Got != 2 || ie.Want != 4 {
		t.Fatalf("Got/Want = %d/%d, want 2/4", ie.Got, ie.Want)
	}
}

// TestResetMatchesFresh: a Reset machine must be observationally
// identical to a newly built one — same schedule, same final state —
// including after a run that exercised calls, spawns, locks and heap
// allocation (so the free lists are populated).
func TestResetMatchesFresh(t *testing.T) {
	cp := compileFig1(t, true)
	in := fig1Input()

	fresh := interp.New(cp, in)
	fres := sched.Runner{Record: true}.Run(fresh, sched.NewCooperative())

	reused := interp.New(cp, in)
	for i := 0; i < 3; i++ {
		sched.Run(reused, sched.NewRandom(int64(i)))
		reused.Reset(cp, in)
	}
	rres := sched.Runner{Record: true}.Run(reused, sched.NewCooperative())

	if fres.Steps != rres.Steps || fres.Crashed != rres.Crashed {
		t.Fatalf("fresh steps=%d crashed=%v; reused steps=%d crashed=%v",
			fres.Steps, fres.Crashed, rres.Steps, rres.Crashed)
	}
	if len(fres.Schedule) != len(rres.Schedule) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(fres.Schedule), len(rres.Schedule))
	}
	for i := range fres.Schedule {
		if fres.Schedule[i] != rres.Schedule[i] {
			t.Fatalf("schedules diverge at step %d", i)
		}
	}
	for _, g := range []string{"x", "busy"} {
		if fresh.Global(g) != reused.Global(g) {
			t.Fatalf("global %q: fresh %v vs reused %v", g, fresh.Global(g), reused.Global(g))
		}
	}
}
