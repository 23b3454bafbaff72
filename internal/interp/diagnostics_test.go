package interp_test

// The diagnostics audit: bytecode lowering must not cost a single bit
// of crash-site quality. Every runtime fault a subject program can
// raise — assertion, division by zero, out-of-bounds index (read and
// write), null dereference, recursive acquire, bad release, and the
// faults of a call-result store — must report the same reason string
// (with the same variable and lock names), the same faulting PC
// (function and source line), the same thread and the same faulting
// stack as the name-map reference. Deadlock diagnosis reads machine
// state (blocked threads, wait locks, PCs), so it is pinned the same
// way. The per-instruction source map that makes this possible is
// round-trip tested below.

import (
	"reflect"
	"testing"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/sched"
)

// crashCases are single-thread programs each reaching one fault kind
// on the cooperative schedule. wantReason is the exact crash message —
// pinned literally so a lowering that drops a variable or lock name
// fails loudly, not just differentially.
var crashCases = []struct {
	name       string
	src        string
	wantReason string
	wantLine   int
}{
	{"assert", `
program t;
global int g;
func main() {
    g = 41;
    assert(g == 42, "g drifted");
}
`, `assertion failed: g drifted`, 6},
	{"div-zero", `
program t;
global int g;
func main() {
    var int x;
    x = 10 / g;
}
`, `division by zero`, 6},
	{"mod-zero", `
program t;
global int g;
func main() {
    var int x;
    x = 10 % g;
}
`, `division by zero`, 6},
	{"index-read", `
program t;
global int a[4];
func main() {
    var int i;
    var int x;
    i = 7;
    x = a[i];
}
`, `index 7 out of bounds for a[4]`, 8},
	{"index-write", `
program t;
global int a[4];
func main() {
    var int i;
    i = 0 - 1;
    a[i] = 5;
}
`, `index -1 out of bounds for a[4]`, 7},
	{"null-deref", `
program t;
func main() {
    var ptr p;
    var int x;
    x = p.val;
}
`, `null pointer dereference`, 6},
	{"null-field-write", `
program t;
func main() {
    var ptr p;
    p.val = 3;
}
`, `null pointer dereference`, 5},
	{"recursive-acquire", `
program t;
lock L;
func main() {
    acquire(L);
    acquire(L);
}
`, `recursive acquire of lock "L"`, 6},
	{"bad-release", `
program t;
lock L;
func main() {
    release(L);
}
`, `release of lock "L" not held by thread 0`, 5},
	// Faults while a call result is stored: the return step pops the
	// callee frame, then evaluates the target's index or object in the
	// caller. The fault is reported at the return instruction.
	{"call-result-index", `
program t;
global int a[4];
func f() {
    return 5;
}
func main() {
    var int i;
    i = 9;
    a[i] = f();
}
`, `index 9 out of bounds for a[4]`, 5},
	{"call-result-null", `
program t;
func f() {
    return 5;
}
func main() {
    var ptr p;
    p.val = f();
}
`, `null pointer dereference`, 4},
}

// crashRun is one run driven to its fault: the crash and the faulting
// thread's stack, bottom frame first. The stack is what a crash dump
// records, so it pins the caller frame's PC after a faulting return.
type crashRun struct {
	crash *interp.CrashInfo
	stack []ir.PC
}

// crashUnder compiles src, drives it to its fault on the cooperative
// schedule, and replays that schedule on the name-map reference.
func crashUnder(t *testing.T, src string) (got, ref crashRun, cp *ir.Program) {
	t.Helper()
	cp = mustCompile(t, src)
	m := interp.New(cp, nil)
	res := sched.Runner{Record: true}.Run(m, sched.NewCooperative())
	if !res.Crashed {
		t.Fatalf("run did not crash (outcome %v)", res.Outcome())
	}
	got.crash = res.Crash
	for _, fr := range m.Threads[res.Crash.ThreadID].Frames {
		got.stack = append(got.stack, ir.PC{F: fr.FuncIdx, I: fr.PC})
	}
	rm := newRefMachine(cp, nil)
	rm.replay(res.Schedule)
	ref.crash = rm.crash
	if rm.crash != nil {
		for _, fr := range rm.threads[rm.crash.ThreadID].frames {
			ref.stack = append(ref.stack, ir.PC{F: fr.funcIdx, I: fr.pc})
		}
	}
	return got, ref, cp
}

// TestCrashDiagnosticsSurviveLowering pins every reachable fault kind:
// exact reason text, source line, thread and faulting stack, identical
// to the name-map reference.
func TestCrashDiagnosticsSurviveLowering(t *testing.T) {
	for _, tc := range crashCases {
		t.Run(tc.name, func(t *testing.T) {
			bc, ref, cp := crashUnder(t, tc.src)
			if !reflect.DeepEqual(bc, ref) {
				t.Fatalf("crash differs from the reference:\n bytecode:  %+v %v\n reference: %+v %v", bc.crash, bc.stack, ref.crash, ref.stack)
			}
			if bc.crash.Reason != tc.wantReason {
				t.Errorf("reason = %q, want %q", bc.crash.Reason, tc.wantReason)
			}
			if line := cp.InstrAt(bc.crash.PC).Line; line != tc.wantLine {
				t.Errorf("faulting line = %d (%s), want %d", line, cp.FormatPC(bc.crash.PC), tc.wantLine)
			}
			if bc.crash.ThreadID != 0 {
				t.Errorf("faulting thread = %d, want 0", bc.crash.ThreadID)
			}
		})
	}
}

// TestDeadlockDiagnosisSurvivesLowering drives a two-thread lock-order
// inversion into deadlock and pins the wait-for diagnosis literally,
// and the blocked threads' PCs and wait locks against the name-map
// reference driven through the same steps, so a post-mortem points at
// the same acquire sites.
func TestDeadlockDiagnosisSurvivesLowering(t *testing.T) {
	const src = `
program t;
lock A;
lock B;
global int g;
func worker() {
    acquire(B);
    g = g + 1;
    acquire(A);
    release(A);
    release(B);
}
func main() {
    spawn worker();
    acquire(A);
    g = g + 1;
    acquire(B);
    release(B);
    release(A);
}
`
	cp := mustCompile(t, src)
	// The deadlocking interleaving: main spawns and takes A, worker
	// takes B, then each steps into the other's lock.
	steps := []int{0, 0, 1, 1, 0}
	m := interp.New(cp, nil)
	rm := newRefMachine(cp, nil)
	for _, tid := range steps {
		if ok, err := m.Step(tid); err != nil || !ok {
			t.Fatalf("step thread %d: ok=%v err=%v", tid, ok, err)
		}
		rm.step(tid)
	}
	m.Step(0) // acquire(B): blocks
	m.Step(1) // acquire(A): blocks
	rm.step(0)
	rm.step(1)
	if len(m.Runnable()) != 0 {
		t.Fatalf("expected deadlock, runnable=%v", m.Runnable())
	}
	type threadState struct {
		pc     string
		status interp.ThreadStatus
		wait   string
	}
	var got, want []threadState
	for _, th := range m.Threads {
		s := threadState{pc: cp.FormatPC(th.PC()), status: th.Status}
		if th.WaitLock >= 0 {
			s.wait = cp.Locks[th.WaitLock]
		}
		got = append(got, s)
	}
	for _, th := range rm.threads {
		fr := th.top()
		want = append(want, threadState{
			pc:     cp.FormatPC(ir.PC{F: fr.funcIdx, I: fr.pc}),
			status: th.status,
			wait:   th.waitLock,
		})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("blocked threads differ from the reference:\n bytecode:  %+v\n reference: %+v", got, want)
	}
	if want := `thread 0 waits for lock "B" held by thread 1, thread 1 waits for lock "A" held by thread 0 (cycle: [0 1])`; sched.DiagnoseDeadlock(m).String() != want {
		t.Errorf("diagnosis = %q, want %q", sched.DiagnoseDeadlock(m).String(), want)
	}
}

// TestBytecodeSourceMapRoundTrip checks the per-instruction source map
// on every reference case: each ir instruction's bytecode segment is
// contiguous, entry points are strictly increasing, and SrcInstr maps
// every bytecode pc in the segment back to the ir instruction it was
// lowered from — the property the crash paths above rely on. A segment
// ends in a terminal and holds no other, with two exceptions. A call
// that binds its result is followed in its segment by the bind code
// the return step runs, so its BEndCall (whose C names the next pc)
// sits mid-segment and the bind code's store terminal carries C = 1.
// A compare-and-branch terminal (BEndBrLL through BEndBrGG) is followed
// by its operand word, a BTargets code that ends the segment and holds
// the branch's true and false targets in A and B.
func TestBytecodeSourceMapRoundTrip(t *testing.T) {
	for _, rc := range referenceCases() {
		t.Run(rc.name, func(t *testing.T) {
			cp := mustCompile(t, rc.source)
			for fi, bf := range cp.BC.Funcs {
				fn := cp.Funcs[fi]
				if len(bf.Entry) != len(fn.Instrs) {
					t.Fatalf("%s: %d entry points for %d instructions", fn.Name, len(bf.Entry), len(fn.Instrs))
				}
				for i := range bf.Entry {
					lo := int(bf.Entry[i])
					hi := len(bf.Code)
					if i+1 < len(bf.Entry) {
						hi = int(bf.Entry[i+1])
					}
					if lo >= hi {
						t.Fatalf("%s: instruction %d has empty bytecode segment [%d,%d)", fn.Name, i, lo, hi)
					}
					for pc := lo; pc < hi; pc++ {
						if got := bf.SrcInstr(pc); got != i {
							t.Fatalf("%s: SrcInstr(%d) = %d, want %d", fn.Name, pc, got, i)
						}
					}
					end := hi - 1 // the segment's terminal
					if w := bf.Code[end]; w.Op == ir.BTargets {
						end--
						if end < lo || bf.Code[end].Op < ir.BEndBrLL || bf.Code[end].Op > ir.BEndBrGG {
							t.Fatalf("%s: instruction %d's operand word follows no compare-and-branch", fn.Name, i)
						}
						if in := fn.Instrs[i]; in.Op != ir.OpBranch || int(w.A) != in.True || int(w.B) != in.False {
							t.Fatalf("%s: instruction %d's operand word holds targets %d/%d, want the branch's %d/%d",
								fn.Name, i, w.A, w.B, in.True, in.False)
						}
					}
					if last := bf.Code[end]; !last.Op.IsTerminal() {
						t.Fatalf("%s: instruction %d's segment ends with non-terminal %v", fn.Name, i, last.Op)
					}
					for pc := lo; pc < end; pc++ {
						c := bf.Code[pc]
						if c.Op == ir.BTargets {
							t.Fatalf("%s: operand word mid-segment at pc %d (instruction %d)", fn.Name, pc, i)
						}
						if !c.Op.IsTerminal() {
							continue
						}
						if c.Op == ir.BEndCall && c.C == int32(pc+1) && bf.Code[end].C == 1 {
							continue
						}
						t.Fatalf("%s: terminal %v mid-segment at pc %d (instruction %d)", fn.Name, c.Op, pc, i)
					}
				}
			}
		})
	}
}
