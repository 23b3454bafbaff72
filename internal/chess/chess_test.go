package chess_test

import (
	"context"
	"testing"

	"heisendump/internal/chess"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/sched"
	"heisendump/internal/slicing"
	"heisendump/internal/trace"
	"heisendump/internal/workloads"
)

func passingTrace(t testing.TB, cp *ir.Program, input *interp.Input) []trace.Event {
	t.Helper()
	return passingRecord(t, cp, input).Events
}

func passingRecord(t testing.TB, cp *ir.Program, input *interp.Input) *trace.Recorder {
	t.Helper()
	rec := trace.NewRecorder()
	m := interp.New(cp, input)
	m.MaxSteps = 1_000_000
	m.Hooks = rec
	res := sched.Run(m, sched.NewCooperative())
	if res.Crashed {
		t.Fatalf("passing run crashed: %v", res.Crash)
	}
	return rec
}

func TestDiscoverCandidatesKindsAndOrder(t *testing.T) {
	w := workloads.ByName("fig1")
	cp, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	events := passingTrace(t, cp, w.Input)
	cands := chess.DiscoverCandidates(cp, events)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	starts := map[int]int{}
	var lastStep int64 = -1
	for i, c := range cands {
		if c.ID != i {
			t.Fatalf("candidate %d has ID %d", i, c.ID)
		}
		if c.Step < lastStep {
			t.Fatal("candidates not in execution order")
		}
		lastStep = c.Step
		if c.Kind == chess.ThreadStart {
			starts[c.Thread]++
		}
	}
	// Exactly one start candidate per thread that ran.
	for tid, n := range starts {
		if n != 1 {
			t.Fatalf("thread %d has %d start candidates", tid, n)
		}
	}
	// Acquire/release candidates must pair up per lock.
	acq, rel := 0, 0
	for _, c := range cands {
		switch c.Kind {
		case chess.BeforeAcquire:
			acq++
		case chess.AfterRelease:
			rel++
		}
	}
	if acq == 0 || acq != rel {
		t.Fatalf("acquire/release candidates unbalanced: %d/%d", acq, rel)
	}
}

func TestDiscoverSkipsBlockedAcquires(t *testing.T) {
	// A thread blocking on a held lock re-executes its acquire; only
	// the successful acquisition is a candidate.
	cp, err := ir.Compile(lang.MustParse(`
program blk;
global int x;
lock L;
func main() {
    acquire(L);
    spawn other();
    x = 1;
    x = 2;
    release(L);
}
func other() {
    acquire(L);
    x = 3;
    release(L);
}
`), ir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Force the interleaving where other() blocks: run main partially,
	// then other, then main. The recorded trace then contains blocked
	// acquire attempts by thread 1.
	rec := trace.NewRecorder()
	m := interp.New(cp, nil)
	m.Hooks = rec
	// main: acquire, spawn.
	for i := 0; i < 2; i++ {
		if _, err := m.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	// other: blocked acquire attempt.
	if _, err := m.Step(1); err != nil {
		t.Fatal(err)
	}
	if m.Threads[1].Status != interp.Blocked {
		t.Fatal("other did not block")
	}
	// Drain everything.
	res := sched.Run(m, sched.NewCooperative())
	if res.Crashed {
		t.Fatal(res.Crash)
	}
	cands := chess.DiscoverCandidates(cp, rec.Events)
	acquires := 0
	for _, c := range cands {
		if c.Kind == chess.BeforeAcquire && c.Thread == 1 {
			acquires++
		}
	}
	if acquires != 1 {
		t.Fatalf("thread 1 acquire candidates: %d, want 1 (blocked attempt must not count)", acquires)
	}
}

func TestAnnotateBlocksAndFutureSets(t *testing.T) {
	w := workloads.ByName("fig1")
	cp, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	rec := passingRecord(t, cp, w.Input)
	events := rec.Events
	cands := chess.DiscoverCandidates(cp, events)
	x := interp.VarID{Kind: interp.VGlobal, Slot: int32(cp.GlobalSlot("x"))}
	accs := slicing.CollectAccesses(rec, []interp.VarID{x}, events[len(events)-1].Step, slicing.Temporal, nil)
	chess.Annotate(cands, accs)

	// Every access in a candidate's block belongs to the candidate's
	// thread and happens at or after the candidate.
	for _, c := range cands {
		for _, a := range c.Accesses {
			if a.Thread != c.Thread {
				t.Fatalf("candidate %d: block access from thread %d", c.ID, a.Thread)
			}
			if a.Step < c.Step {
				t.Fatalf("candidate %d: block access before the candidate", c.ID)
			}
		}
		// Future sets contain every block-access variable.
		for _, a := range c.Accesses {
			if a.CSV != 0 || !c.FutureCSVs.Has(a.CSV) {
				t.Fatalf("candidate %d: block var %v (CSV %d) missing from future set", c.ID, a.Var, a.CSV)
			}
		}
	}
	// T2's thread-start candidate must have x in its future set (the
	// paper's Fig. 9: its block holds the ⊥-priority x=0 access).
	foundT2 := false
	for _, c := range cands {
		if c.Kind == chess.ThreadStart && c.FutureCSVs.Has(0) && c.Thread == 2 {
			foundT2 = true
		}
	}
	if !foundT2 {
		t.Fatal("T2's start candidate lacks x in its future CSV set")
	}
}

func TestMinPriority(t *testing.T) {
	c := &chess.Candidate{}
	if c.MinPriority() != slicing.PriorityBottom {
		t.Fatal("empty candidate should have bottom priority")
	}
	c.Accesses = []slicing.Access{
		{Priority: 7, Var: interp.VarID{Kind: interp.VGlobal, Slot: 0}},
		{Priority: 3, Var: interp.VarID{Kind: interp.VGlobal, Slot: 1}, CSV: 1},
	}
	if c.MinPriority() != 3 {
		t.Fatalf("MinPriority = %d", c.MinPriority())
	}
}

func TestSearchRespectsMaxTries(t *testing.T) {
	w := workloads.ByName("apache-2")
	cp, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	events := passingTrace(t, cp, w.Input)
	cands := chess.DiscoverCandidates(cp, events)
	chess.Annotate(cands, nil)
	s := &chess.Searcher{
		NewMachine: func() *interp.Machine {
			m := interp.New(cp, w.Input)
			m.MaxSteps = 1_000_000
			return m
		},
		Candidates: cands,
		Target:     chess.FailureSignature{Reason: "never matches"},
		Opts:       chess.Options{Bound: 2, MaxTries: 25, PassingSteps: int64(len(events))},
	}
	res := s.SearchContext(context.Background())
	if res.Found {
		t.Fatal("found an unmatchable signature")
	}
	if res.Tries > 25 {
		t.Fatalf("tries %d exceeded MaxTries", res.Tries)
	}
}

func TestSearchSignatureMatching(t *testing.T) {
	sig := chess.FailureSignature{PC: ir.PC{F: 1, I: 2}, Reason: "boom"}
	if sig.Matches(nil) {
		t.Fatal("nil crash matched")
	}
	if !sig.Matches(&interp.CrashInfo{PC: ir.PC{F: 1, I: 2}, Reason: "boom"}) {
		t.Fatal("exact crash did not match")
	}
	if sig.Matches(&interp.CrashInfo{PC: ir.PC{F: 1, I: 3}, Reason: "boom"}) {
		t.Fatal("different PC matched")
	}
	if sig.Matches(&interp.CrashInfo{PC: ir.PC{F: 1, I: 2}, Reason: "other"}) {
		t.Fatal("different reason matched")
	}
}

func TestPointKindString(t *testing.T) {
	for _, k := range []chess.PointKind{chess.ThreadStart, chess.BeforeAcquire, chess.AfterRelease} {
		if k.String() == "?" || k.String() == "" {
			t.Fatalf("kind %d has bad name", int(k))
		}
	}
}

// TestFoundScheduleReplays: a schedule found by the search reproduces
// the failure when the search re-applies it (determinism of the
// preemption-aware replay).
func TestFoundScheduleReplays(t *testing.T) {
	w := workloads.ByName("mysql-1")
	cp, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	events := passingTrace(t, cp, w.Input)

	// Recover the true failure signature by stressing.
	m, _ := sched.StressContext(context.Background(), func() *interp.Machine {
		mm := interp.New(cp, w.Input)
		mm.MaxSteps = 1_000_000
		return mm
	}, 2000)
	if m == nil {
		t.Skip("no crash")
	}
	sig := chess.FailureSignature{PC: m.Crash.PC, Reason: m.Crash.Reason}

	cands := chess.DiscoverCandidates(cp, events)
	chess.Annotate(cands, nil)
	mk := func() *interp.Machine {
		mm := interp.New(cp, w.Input)
		mm.MaxSteps = 1_000_000
		return mm
	}
	s := &chess.Searcher{NewMachine: mk, Candidates: cands, Target: sig,
		Opts: chess.Options{Bound: 2, MaxTries: 3000, PassingSteps: int64(len(events))}}
	res := s.SearchContext(context.Background())
	if !res.Found {
		t.Fatalf("not found in %d tries", res.Tries)
	}
	if len(res.Schedule) == 0 {
		t.Fatal("found but empty schedule")
	}
	// Re-search with the same inputs: deterministic result.
	res2 := s.SearchContext(context.Background())
	if !res2.Found || res2.Tries != res.Tries {
		t.Fatalf("search not deterministic: %d vs %d tries", res.Tries, res2.Tries)
	}
}
