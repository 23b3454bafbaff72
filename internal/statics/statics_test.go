package statics_test

import (
	"strings"
	"testing"

	"heisendump/internal/ir"
	"heisendump/internal/progcache"
	"heisendump/internal/statics"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, _, err := progcache.Shared().Get(src, false)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// raceVars collects the distinct race variables of a report.
func raceVars(rep *statics.Report) map[string]bool {
	out := map[string]bool{}
	for _, r := range rep.Races {
		out[r.Var] = true
	}
	return out
}

// TestLocksets drives the analyzer over hand-written programs covering
// the lockset taxonomy: guarded, unguarded, conditionally-guarded,
// loop-carried, interprocedural, and the thread-structure refinements.
func TestLocksets(t *testing.T) {
	cases := []struct {
		name string
		src  string
		// wantRaces is the exact set of expected race variables;
		// wantDeadlocks the expected number of lock cycles.
		wantRaces     []string
		wantDeadlocks int
	}{
		{
			name: "guarded",
			src: `
program guarded;
global int g;
lock L;
func main() { spawn T(); spawn T(); }
func T() { acquire(L); g = g + 1; release(L); }
`,
		},
		{
			name: "unguarded",
			src: `
program unguarded;
global int g;
lock L;
func main() { spawn T(); spawn U(); }
func T() { acquire(L); g = g + 1; release(L); }
func U() { g = 7; }
`,
			wantRaces: []string{"g"},
		},
		{
			name: "conditionally_guarded",
			src: `
program condguard;
global int g;
global int mode;
lock L;
func main() { spawn T(1); spawn T(0); }
func T(int m) {
    if (m == 1) { acquire(L); }
    g = g + 1;
    if (m == 1) { release(L); }
}
`,
			// The lock is held on only one path into the access: the
			// must-held meet drops it, so the pair is flagged.
			wantRaces: []string{"g"},
		},
		{
			name: "loop_carried_held",
			src: `
program loopheld;
global int g;
lock L;
func main() { spawn T(); spawn T(); }
func T() {
    var int i;
    acquire(L);
    for i = 1 .. 3 { g = g + 1; }
    release(L);
}
`,
			// Acquired before the loop, released after: the back edge
			// must keep the bit — no race.
		},
		{
			name: "loop_body_guarded_tail_unguarded",
			src: `
program looptail;
global int g;
lock L;
func main() { spawn T(); spawn T(); }
func T() {
    var int i;
    for i = 1 .. 3 { acquire(L); g = g + 1; release(L); }
    g = g + 2;
}
`,
			wantRaces: []string{"g"},
		},
		{
			name: "interproc_gen",
			src: `
program ipgen;
global int g;
lock L;
func main() { spawn T(); spawn T(); }
func lockit() { acquire(L); }
func T() { lockit(); g = g + 1; release(L); }
`,
			// The callee's summary must carry the acquisition out.
		},
		{
			name: "interproc_kill",
			src: `
program ipkill;
global int g;
lock L;
func main() { spawn T(); spawn T(); }
func unlockit() { release(L); }
func T() { acquire(L); unlockit(); g = g + 1; acquire(L); release(L); }
`,
			// The callee releases: the post-call access is unprotected.
			wantRaces: []string{"g"},
		},
		{
			name: "callee_entry_lockset",
			src: `
program ipentry;
global int g;
lock L;
func main() { spawn T(); spawn T(); }
func put() { g = g + 1; }
func T() { acquire(L); put(); release(L); }
`,
			// Every call site holds L, so the callee body inherits it.
		},
		{
			name: "callee_entry_meet",
			src: `
program ipentry2;
global int g;
lock L;
func main() { spawn T(); spawn U(); }
func put() { g = g + 1; }
func T() { acquire(L); put(); release(L); }
func U() { put(); }
`,
			// One caller is lock-free: the callee entry meet is empty.
			wantRaces: []string{"g"},
		},
		{
			name: "self_race_two_instances",
			src: `
program selfrace;
global int g;
func main() { spawn T(); spawn T(); }
func T() { g = g + 1; }
`,
			// One site racing with itself across two instances of T.
			wantRaces: []string{"g"},
		},
		{
			name: "single_instance_no_race",
			src: `
program single;
global int g;
func main() { spawn T(); }
func T() { g = g + 1; }
`,
			// Only one instance of T ever writes, and main never touches
			// g: nothing to race with.
		},
		{
			name: "prespawn_main_excluded",
			src: `
program prespawn;
global int g;
func main() { g = 1; spawn T(); }
func T() { g = g + 1; }
`,
			// main's write happens-before the spawn — no race.
		},
		{
			name: "postspawn_main_races",
			src: `
program postspawn;
global int g;
func main() { spawn T(); g = 1; }
func T() { g = g + 1; }
`,
			wantRaces: []string{"g"},
		},
		{
			name: "const_index_disjoint",
			src: `
program stripes;
global int a[2];
func main() { spawn T(); spawn U(); }
func T() { a[0] = 1; }
func U() { a[1] = 2; }
`,
			// Distinct constant indices provably do not alias.
		},
		{
			name: "const_index_same_slot",
			src: `
program collide;
global int a[2];
func main() { spawn T(); spawn U(); }
func T() { a[1] = 1; }
func U() { a[1] = 2; }
`,
			wantRaces: []string{"a"},
		},
		{
			name: "dynamic_index_conservative",
			src: `
program dynidx;
global int a[4];
global int k;
func main() { spawn T(); spawn U(); }
func T() { a[k] = 1; }
func U() { a[1] = 2; }
`,
			// A dynamic index may alias anything — flag it (plus the k
			// read-vs-nothing is read-only, so only `a` is racy).
			wantRaces: []string{"a"},
		},
		{
			name: "field_race",
			src: `
program fields;
global ptr p;
lock L;
func main() { p = new(v); spawn T(); spawn U(); }
func T() { acquire(L); p.v = 1; release(L); }
func U() { p.v = 2; }
`,
			// p itself: written pre-spawn in main only; field v races.
			wantRaces: []string{"v"},
		},
		{
			name: "lock_order_cycle",
			src: `
program dl;
global int g;
lock A;
lock B;
func main() { spawn T(); spawn U(); }
func T() { acquire(A); acquire(B); g = g + 1; release(B); release(A); }
func U() { acquire(B); acquire(A); g = g + 2; release(A); release(B); }
`,
			wantDeadlocks: 1,
		},
		{
			name: "lock_order_consistent",
			src: `
program nodl;
global int g;
lock A;
lock B;
func main() { spawn T(); spawn T(); }
func T() { acquire(A); acquire(B); g = g + 1; release(B); release(A); }
`,
		},
		{
			name: "self_reacquire",
			src: `
program selfacq;
lock L;
func main() { spawn T(); }
func T() { acquire(L); acquire(L); release(L); }
`,
			// Re-acquiring a held non-reentrant lock: one-lock cycle.
			wantDeadlocks: 1,
		},
		{
			name: "recursion_conservative",
			src: `
program rec;
global int g;
lock L;
func main() { spawn T(3); spawn T(3); }
func T(int n) {
    if (n > 0) { acquire(L); T(n - 1); g = g + 1; release(L); }
}
`,
			// The recursive summary is conservative (call may release
			// everything): the post-call access counts as unprotected,
			// a deliberate false positive, never a false negative.
			wantRaces: []string{"g"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := statics.Analyze(compile(t, tc.src))
			got := raceVars(rep)
			if len(got) != len(tc.wantRaces) {
				t.Errorf("race vars = %v, want %v\nreport:\n%s", got, tc.wantRaces, rep)
			}
			for _, v := range tc.wantRaces {
				if !got[v] {
					t.Errorf("missing race on %q\nreport:\n%s", v, rep)
				}
			}
			if len(rep.Deadlocks) != tc.wantDeadlocks {
				t.Errorf("deadlocks = %d, want %d\nreport:\n%s", len(rep.Deadlocks), tc.wantDeadlocks, rep)
			}
		})
	}
}

// TestReportDeterminism: same program, byte-identical report.
func TestReportDeterminism(t *testing.T) {
	src := `
program det;
global int g;
global int a[4];
lock A;
lock B;
func main() { spawn T(); spawn U(); g = 5; }
func T() { acquire(A); acquire(B); g = g + 1; a[2] = g; release(B); release(A); }
func U() { acquire(B); acquire(A); g = g + 2; a[2] = 0; release(A); release(B); }
`
	prog := compile(t, src)
	first := statics.Analyze(prog).String()
	for i := 0; i < 10; i++ {
		if got := statics.Analyze(prog).String(); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestFocusSet: the focus set is the distinct race variables, nil when
// the program is clean.
func TestFocusSet(t *testing.T) {
	rep := statics.Analyze(compile(t, `
program focus;
global int g;
global int h;
func main() { spawn T(); spawn T(); }
func T() { g = g + 1; h = h + 1; }
`))
	fs := rep.FocusSet()
	if !fs["g"] || !fs["h"] || len(fs) != 2 {
		t.Fatalf("FocusSet = %v, want {g, h}", fs)
	}

	clean := statics.Analyze(compile(t, `
program cleanfocus;
global int g;
lock L;
func main() { spawn T(); spawn T(); }
func T() { acquire(L); g = g + 1; release(L); }
`))
	if fs := clean.FocusSet(); fs != nil {
		t.Fatalf("clean FocusSet = %v, want nil", fs)
	}
}

// TestWitnesses: the report carries usable lockset/line witnesses.
func TestWitnesses(t *testing.T) {
	rep := statics.Analyze(compile(t, `
program witness;
global int g;
lock L;
func main() { spawn T(); spawn U(); }
func T() { acquire(L); g = g + 1; release(L); }
func U() { g = 7; }
`))
	if len(rep.Races) == 0 {
		t.Fatalf("no races:\n%s", rep)
	}
	sawGuarded := false
	for _, r := range rep.Races {
		for _, s := range []statics.Site{r.A, r.B} {
			if s.Line <= 0 {
				t.Errorf("site without line: %+v", s)
			}
			if s.Func == "T" && len(s.Lockset) == 1 && s.Lockset[0] == "L" {
				sawGuarded = true
			}
		}
	}
	if !sawGuarded {
		t.Errorf("no site witnessed holding L:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "race on scalar g") {
		t.Errorf("rendering missing race line:\n%s", rep)
	}
}
