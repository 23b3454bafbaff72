package interp

import (
	"fmt"
	"math"

	"heisendump/internal/ir"
)

// This file is the machine's execution engine: a dispatch loop over the
// flat ir.Bytecode image that Compile lowers every program to. One step
// is a tight for/switch over fixed-width ops indexed by a bytecode pc,
// so the trial hot path of the schedule search spends its time in one
// branch-predictable loop with no pointer chasing. The name-map
// reference interpreter in reference_test.go, which executes the
// source AST, pins the loop's semantics.
//
// Contract:
//
//   - Frame.PC stays an ir-level instruction index. A step enters the
//     code array at Entry[fr.PC] and runs to the instruction's BEnd*
//     terminal, which writes the next ir-level PC. Scheduling
//     granularity, traces, crash PCs and candidate sites are therefore
//     those of the ir instruction stream.
//
//   - One dispatch call runs a thread from one scheduling decision to
//     the next: a terminal that only moves the PC, a sync operation
//     below the burst's horizon, a call and a spawn go on to the next
//     instruction inside the call, which returns only where its caller
//     must look at the machine (see execBC). Step is a call limited to
//     one step, and a random run, which may switch threads at every
//     step, makes one such call per step inside RunRandom, drawing the
//     next thread between them.
//
//   - The value stack is scratch space within one step: it is empty at
//     every instruction boundary, so it lives on the Machine (sized
//     once from the compile-time Bytecode.MaxStack) and a steady-state
//     step allocates nothing.
//
//   - Hooks fire in source evaluation order, including from inside
//     superinstructions: a fused compare still reports both operand
//     reads, a fused store still reports the read(s) then the write.
//     Traces, slices and the dump aligner are built from hook events,
//     so hook order is a correctness requirement, not a nicety.

// Step executes one instruction of thread tid: a burst limited to one
// step. It returns false when the thread could not be stepped
// (blocked, done, not a thread, or machine crashed). Runtime faults
// crash the machine and return true: the faulting instruction was the
// step. It serves callers that pick every step, such as per-step
// reference loops; sched.Runner calls RunBurst and RunRandom.
func (m *Machine) Step(tid int) (bool, error) {
	t, err := m.enter(tid)
	if t == nil {
		return false, err
	}
	return m.execBC(t, m.TotalSteps+1, 0)
}

// enter starts a Step or a burst of thread tid: it returns the thread,
// or nil and the call's error when the thread cannot be stepped.
func (m *Machine) enter(tid int) (*Thread, error) {
	m.released = -1
	if m.Crashed() {
		return nil, nil
	}
	if m.MaxSteps > 0 && m.TotalSteps >= m.MaxSteps {
		return nil, ErrStepLimit
	}
	if uint(tid) < uint(len(m.Threads)) && m.threadRunnable(m.Threads[tid]) {
		return m.Threads[tid], nil
	}
	return nil, nil
}

// ensureStack sizes the per-step value stack for prog's deepest
// instruction; called from Reset so a rebound machine always has
// enough scratch space.
func (m *Machine) ensureStack(prog *ir.Program) {
	need := int(prog.BC.MaxStack)
	if need < 8 {
		need = 8
	}
	if cap(m.stack) < need {
		m.stack = make([]Value, need)
	}
	m.stack = m.stack[:cap(m.stack)]
}

// RunBurst executes consecutive instructions of thread tid until the
// thread blocks, finishes or faults, a step errors, the machine's
// TotalSteps reaches limit (0 = no limit; MaxSteps still applies), or
// the thread reaches its sync horizon. While the thread's Syncs count
// is below horizon, the burst runs through acquires and releases. Once
// Syncs reaches horizon, the burst stops right after the sync
// operation that got it there, and from then on before every acquire
// or release: a burst that starts on one executes that one instruction
// and stops, so the caller sees the machine before and after each sync
// operation. A horizon of 0 stops at every sync operation. At least
// one instruction is attempted. The return contract is Step's,
// covering the last step taken; per-step accounting and hook events
// are identical to calling Step in a loop — RunBurst only removes the
// caller's per-step re-inspection of the machine, which is what makes
// the run loop fast between the points where its scheduler may switch.
// The whole burst is one dispatch call.
func (m *Machine) RunBurst(tid int, limit int64, horizon int) (bool, error) {
	t, err := m.enter(tid)
	if t == nil {
		return false, err
	}
	// One step bound for the call: the nearer of limit and MaxSteps.
	if limit <= 0 || (m.MaxSteps > 0 && m.MaxSteps < limit) {
		limit = m.MaxSteps
	}
	if limit <= 0 {
		limit = math.MaxInt64
	}
	return m.execBC(t, limit, horizon)
}

// RunRandom executes thread tid's next instruction, then draws each
// next thread from the runnable set as sched.Random does,
// runnable[rng.Intn(len(runnable))], and executes one instruction of
// it, until the machine faults or finishes, no thread is runnable, a
// step errors, or TotalSteps reaches limit (0 = no limit; MaxSteps
// still applies). A stop at the limit comes before the draw, so the
// caller's next draw is the one a per-step loop would make there.
// Every instruction is a one-step dispatch call, so draws, per-step
// accounting and hook events are identical to drawing and calling
// Step in a loop; RunRandom only removes the caller's turn between
// steps. The return contract is Step's, covering the last step taken.
func (m *Machine) RunRandom(tid int, limit int64, rng *RNG) (bool, error) {
	t, err := m.enter(tid)
	if t == nil {
		return false, err
	}
	if limit <= 0 || (m.MaxSteps > 0 && m.MaxSteps < limit) {
		limit = m.MaxSteps
	}
	if limit <= 0 {
		limit = math.MaxInt64
	}
	for {
		if _, err := m.execBC(t, m.TotalSteps+1, 0); err != nil {
			return false, err
		}
		if m.Crash != nil || m.live == 0 || m.TotalSteps >= limit {
			return true, nil
		}
		runnable := m.Runnable()
		if len(runnable) == 0 {
			return true, nil
		}
		t = m.Threads[runnable[rng.Intn(len(runnable))]]
	}
}

// execBC runs thread t, which the caller has checked is steppable,
// from its current instruction up to the next point where a scheduler
// must look at the machine. The first instruction always runs. Every
// terminal that leaves the thread runnable goes on to the next
// instruction: a store, move, constant or increment, a branch or jump,
// a passing assert, output, a call (into the callee's first
// instruction), a return to a caller and its result store, a spawn,
// and an acquire or release that leaves the thread's Syncs count below
// horizon. It does not go on when TotalSteps has reached limit or, once
// Syncs is at or past horizon, when that instruction is an acquire or
// release. Before each instruction it goes on to, the loop does what a
// new call would: BeforeInstr fires and Steps and TotalSteps count it.
// It returns after the sync operation that brings Syncs to horizon (or
// any sync operation from it on), a blocking acquire, the thread's
// last return and every fault. A call that starts below the horizon
// returns on reaching it, so whether Syncs is at the horizon when the
// loop goes on is fixed for the whole call.
//
// The loop keeps the current function's code and entry table in
// locals: a terminal that falls through leaves cpc at the next
// instruction's first op, and only the ops that move control elsewhere
// (branch, jump, call, return) look the entry table up or reload them.
func (m *Machine) execBC(t *Thread, limit int64, horizon int) (bool, error) {
	fr := t.Top()
	hooks := m.Hooks
	if hooks != nil && t.Steps == 0 {
		// The thread's entry-function region opens at its first step
		// (see spawnThread).
		hooks.OnEnterFunc(t, t.EntryFunc)
	}
	consts := m.Prog.BC.Consts
	st := m.stack
	atHorizon := t.Syncs >= horizon
	fn, code, entry := fr.fn, fr.code.Code, fr.code.Entry
	cpc := entry[fr.PC]

	for {
		pc := ir.PC{F: fr.FuncIdx, I: fr.PC}
		if hooks != nil {
			hooks.BeforeInstr(t, pc)
		}
		t.Steps++
		m.TotalSteps++
		sp := 0

	dispatch:
		for {
			c := code[cpc]
			cpc++
			switch c.Op {

			// ---- pushes ----

			case ir.BConstInt:
				st[sp] = IntVal(consts[c.A])
				sp++

			case ir.BConstBool:
				st[sp] = Value{Kind: KBool, Num: int64(c.A)}
				sp++

			case ir.BConstNull:
				st[sp] = Null
				sp++

			case ir.BLoadLocal:
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.A))
				}
				st[sp] = fr.Locals[c.A]
				sp++

			case ir.BLoadGlobal:
				if hooks != nil {
					hooks.OnRead(t, globalVar(c.A))
				}
				st[sp] = m.Globals[c.A]
				sp++

			case ir.BLoadIndex:
				idx := st[sp-1].Num
				arr := m.Arrays[c.A]
				if idx < 0 || idx >= int64(len(arr)) {
					m.crash(t, pc, fmt.Sprintf("index %d out of bounds for %s[%d]", idx, m.Prog.ArrayNames[c.A], len(arr)))
					return true, nil
				}
				if hooks != nil {
					hooks.OnRead(t, elemVar(c.A, idx))
				}
				st[sp-1] = IntVal(arr[idx])

			case ir.BLoadIndexLocal:
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.B))
				}
				idx := fr.Locals[c.B].Num
				arr := m.Arrays[c.A]
				if idx < 0 || idx >= int64(len(arr)) {
					m.crash(t, pc, fmt.Sprintf("index %d out of bounds for %s[%d]", idx, m.Prog.ArrayNames[c.A], len(arr)))
					return true, nil
				}
				if hooks != nil {
					hooks.OnRead(t, elemVar(c.A, idx))
				}
				st[sp] = IntVal(arr[idx])
				sp++

			case ir.BLoadField:
				obj := st[sp-1]
				o := m.object(obj)
				if o == nil {
					m.badPointer(t, pc, obj)
					return true, nil
				}
				i := o.field(c.A)
				if i < 0 {
					m.crash(t, pc, fmt.Sprintf("object has no field %q", m.Prog.BC.Names[c.A]))
					return true, nil
				}
				if hooks != nil {
					hooks.OnRead(t, fieldVar(c.A, obj.Obj()))
				}
				st[sp-1] = o.Vals[i]

			case ir.BNew:
				st[sp] = PtrVal(m.newObject(m.Prog.BC.FieldSets[c.A]))
				sp++

			// ---- operators ----

			case ir.BNot:
				st[sp-1] = BoolVal(!st[sp-1].Bool())

			case ir.BNeg:
				st[sp-1] = IntVal(-st[sp-1].Num)

			case ir.BBinop:
				y := st[sp-1]
				sp--
				x := st[sp-1]
				switch ir.ExprOp(c.A) {
				case ir.ExAdd:
					st[sp-1] = IntVal(x.Num + y.Num)
				case ir.ExSub:
					st[sp-1] = IntVal(x.Num - y.Num)
				case ir.ExMul:
					st[sp-1] = IntVal(x.Num * y.Num)
				case ir.ExDiv:
					if y.Num == 0 {
						m.crash(t, pc, "division by zero")
						return true, nil
					}
					st[sp-1] = IntVal(x.Num / y.Num)
				case ir.ExMod:
					if y.Num == 0 {
						m.crash(t, pc, "division by zero")
						return true, nil
					}
					st[sp-1] = IntVal(x.Num % y.Num)
				default:
					st[sp-1] = BoolVal(cmpVals(ir.ExprOp(c.A), x.Num, y.Num))
				}

			case ir.BCmpLL:
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.A))
					hooks.OnRead(t, localVar(fr, c.B))
				}
				st[sp] = BoolVal(cmpVals(ir.ExprOp(c.C), fr.Locals[c.A].Num, fr.Locals[c.B].Num))
				sp++

			case ir.BCmpLC:
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.A))
				}
				st[sp] = BoolVal(cmpVals(ir.ExprOp(c.C), fr.Locals[c.A].Num, consts[c.B]))
				sp++

			case ir.BCmpLG:
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.A))
					hooks.OnRead(t, globalVar(c.B))
				}
				st[sp] = BoolVal(cmpVals(ir.ExprOp(c.C), fr.Locals[c.A].Num, m.Globals[c.B].Num))
				sp++

			case ir.BCmpGL:
				if hooks != nil {
					hooks.OnRead(t, globalVar(c.A))
					hooks.OnRead(t, localVar(fr, c.B))
				}
				st[sp] = BoolVal(cmpVals(ir.ExprOp(c.C), m.Globals[c.A].Num, fr.Locals[c.B].Num))
				sp++

			case ir.BCmpGC:
				if hooks != nil {
					hooks.OnRead(t, globalVar(c.A))
				}
				st[sp] = BoolVal(cmpVals(ir.ExprOp(c.C), m.Globals[c.A].Num, consts[c.B]))
				sp++

			case ir.BCmpGG:
				if hooks != nil {
					hooks.OnRead(t, globalVar(c.A))
					hooks.OnRead(t, globalVar(c.B))
				}
				st[sp] = BoolVal(cmpVals(ir.ExprOp(c.C), m.Globals[c.A].Num, m.Globals[c.B].Num))
				sp++

			// ---- short-circuit control flow ----

			case ir.BAndCheck:
				v := st[sp-1]
				sp--
				if !v.Bool() {
					st[sp] = BoolVal(false)
					sp++
					cpc = c.A
				}

			case ir.BOrCheck:
				v := st[sp-1]
				sp--
				if v.Bool() {
					st[sp] = BoolVal(true)
					sp++
					cpc = c.A
				}

			case ir.BBool:
				st[sp-1] = BoolVal(st[sp-1].Bool())

			// ---- terminals ----

			// The generic stores also end a call site's bind code (see
			// BEndReturn), where C is 1: the call already advanced the
			// caller's PC.

			case ir.BEndAssignLocal:
				fr.Locals[c.A] = st[sp-1]
				fr.Live[c.A] = true
				if hooks != nil {
					hooks.OnWrite(t, localVar(fr, c.A))
				}
				if c.C == 0 {
					fr.PC++
				}
				break dispatch

			case ir.BEndAssignGlobal:
				m.Globals[c.A] = st[sp-1]
				if hooks != nil {
					hooks.OnWrite(t, globalVar(c.A))
				}
				if c.C == 0 {
					fr.PC++
				}
				break dispatch

			case ir.BEndAssignArray:
				idx := st[sp-1].Num
				v := st[sp-2]
				arr := m.Arrays[c.A]
				if idx < 0 || idx >= int64(len(arr)) {
					m.crash(t, pc, fmt.Sprintf("index %d out of bounds for %s[%d]", idx, m.Prog.ArrayNames[c.A], len(arr)))
					return true, nil
				}
				arr[idx] = v.Num
				if hooks != nil {
					hooks.OnWrite(t, elemVar(c.A, idx))
				}
				if c.C == 0 {
					fr.PC++
				}
				break dispatch

			case ir.BEndAssignArrayLocal:
				v := st[sp-1]
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.B))
				}
				idx := fr.Locals[c.B].Num
				arr := m.Arrays[c.A]
				if idx < 0 || idx >= int64(len(arr)) {
					m.crash(t, pc, fmt.Sprintf("index %d out of bounds for %s[%d]", idx, m.Prog.ArrayNames[c.A], len(arr)))
					return true, nil
				}
				arr[idx] = v.Num
				if hooks != nil {
					hooks.OnWrite(t, elemVar(c.A, idx))
				}
				if c.C == 0 {
					fr.PC++
				}
				break dispatch

			case ir.BEndAssignField:
				obj := st[sp-1]
				v := st[sp-2]
				o := m.object(obj)
				if o == nil {
					m.badPointer(t, pc, obj)
					return true, nil
				}
				if i := o.field(c.A); i >= 0 {
					o.Vals[i] = v
				} else {
					// A store to a field the object lacks adds it. A fresh
					// object's names are the shared compiled set, clipped,
					// so its first growth copies them and later ones append
					// to the object's own list.
					o.Names = append(o.Names, c.A)
					o.Vals = append(o.Vals, v)
				}
				if hooks != nil {
					hooks.OnWrite(t, fieldVar(c.A, obj.Obj()))
				}
				if c.C == 0 {
					fr.PC++
				}
				break dispatch

			case ir.BEndMoveLL:
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.B))
				}
				fr.Locals[c.A] = fr.Locals[c.B]
				fr.Live[c.A] = true
				if hooks != nil {
					hooks.OnWrite(t, localVar(fr, c.A))
				}
				fr.PC++
				break dispatch

			case ir.BEndMoveLG:
				if hooks != nil {
					hooks.OnRead(t, globalVar(c.B))
				}
				fr.Locals[c.A] = m.Globals[c.B]
				fr.Live[c.A] = true
				if hooks != nil {
					hooks.OnWrite(t, localVar(fr, c.A))
				}
				fr.PC++
				break dispatch

			case ir.BEndMoveGL:
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.B))
				}
				m.Globals[c.A] = fr.Locals[c.B]
				if hooks != nil {
					hooks.OnWrite(t, globalVar(c.A))
				}
				fr.PC++
				break dispatch

			case ir.BEndMoveGG:
				if hooks != nil {
					hooks.OnRead(t, globalVar(c.B))
				}
				m.Globals[c.A] = m.Globals[c.B]
				if hooks != nil {
					hooks.OnWrite(t, globalVar(c.A))
				}
				fr.PC++
				break dispatch

			case ir.BEndConstL:
				fr.Locals[c.A] = IntVal(consts[c.B])
				fr.Live[c.A] = true
				if hooks != nil {
					hooks.OnWrite(t, localVar(fr, c.A))
				}
				fr.PC++
				break dispatch

			case ir.BEndConstG:
				m.Globals[c.A] = IntVal(consts[c.B])
				if hooks != nil {
					hooks.OnWrite(t, globalVar(c.A))
				}
				fr.PC++
				break dispatch

			case ir.BEndIncL:
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.B))
				}
				fr.Locals[c.A] = IntVal(fr.Locals[c.B].Num + consts[c.C])
				fr.Live[c.A] = true
				if hooks != nil {
					hooks.OnWrite(t, localVar(fr, c.A))
				}
				fr.PC++
				break dispatch

			case ir.BEndIncG:
				if hooks != nil {
					hooks.OnRead(t, globalVar(c.B))
				}
				m.Globals[c.A] = IntVal(m.Globals[c.B].Num + consts[c.C])
				if hooks != nil {
					hooks.OnWrite(t, globalVar(c.A))
				}
				fr.PC++
				break dispatch

			case ir.BEndArrToL:
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.C))
				}
				idx := fr.Locals[c.C].Num
				arr := m.Arrays[c.A]
				if idx < 0 || idx >= int64(len(arr)) {
					m.crash(t, pc, fmt.Sprintf("index %d out of bounds for %s[%d]", idx, m.Prog.ArrayNames[c.A], len(arr)))
					return true, nil
				}
				if hooks != nil {
					hooks.OnRead(t, elemVar(c.A, idx))
				}
				fr.Locals[c.B] = IntVal(arr[idx])
				fr.Live[c.B] = true
				if hooks != nil {
					hooks.OnWrite(t, localVar(fr, c.B))
				}
				fr.PC++
				break dispatch

			case ir.BEndLToArr:
				// RHS first (the stored local), then the index local —
				// the source evaluation order of arr[i] = v.
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.C))
				}
				v := fr.Locals[c.C]
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.B))
				}
				idx := fr.Locals[c.B].Num
				arr := m.Arrays[c.A]
				if idx < 0 || idx >= int64(len(arr)) {
					m.crash(t, pc, fmt.Sprintf("index %d out of bounds for %s[%d]", idx, m.Prog.ArrayNames[c.A], len(arr)))
					return true, nil
				}
				arr[idx] = v.Num
				if hooks != nil {
					hooks.OnWrite(t, elemVar(c.A, idx))
				}
				fr.PC++
				break dispatch

			case ir.BEndBranch:
				fr.PC = branch(hooks, t, pc, st[sp-1].Bool(), c)
				cpc = entry[fr.PC]
				break dispatch

			// The compare-and-branch terminals read their operands as
			// the BCmp* op of their shape does, then branch as
			// BEndBranch does, to the targets in the word at cpc.

			case ir.BEndBrLL:
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.A))
					hooks.OnRead(t, localVar(fr, c.B))
				}
				fr.PC = branch(hooks, t, pc, cmpVals(ir.ExprOp(c.C), fr.Locals[c.A].Num, fr.Locals[c.B].Num), code[cpc])
				cpc = entry[fr.PC]
				break dispatch

			case ir.BEndBrLC:
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.A))
				}
				fr.PC = branch(hooks, t, pc, cmpVals(ir.ExprOp(c.C), fr.Locals[c.A].Num, consts[c.B]), code[cpc])
				cpc = entry[fr.PC]
				break dispatch

			case ir.BEndBrLG:
				if hooks != nil {
					hooks.OnRead(t, localVar(fr, c.A))
					hooks.OnRead(t, globalVar(c.B))
				}
				fr.PC = branch(hooks, t, pc, cmpVals(ir.ExprOp(c.C), fr.Locals[c.A].Num, m.Globals[c.B].Num), code[cpc])
				cpc = entry[fr.PC]
				break dispatch

			case ir.BEndBrGL:
				if hooks != nil {
					hooks.OnRead(t, globalVar(c.A))
					hooks.OnRead(t, localVar(fr, c.B))
				}
				fr.PC = branch(hooks, t, pc, cmpVals(ir.ExprOp(c.C), m.Globals[c.A].Num, fr.Locals[c.B].Num), code[cpc])
				cpc = entry[fr.PC]
				break dispatch

			case ir.BEndBrGC:
				if hooks != nil {
					hooks.OnRead(t, globalVar(c.A))
				}
				fr.PC = branch(hooks, t, pc, cmpVals(ir.ExprOp(c.C), m.Globals[c.A].Num, consts[c.B]), code[cpc])
				cpc = entry[fr.PC]
				break dispatch

			case ir.BEndBrGG:
				if hooks != nil {
					hooks.OnRead(t, globalVar(c.A))
					hooks.OnRead(t, globalVar(c.B))
				}
				fr.PC = branch(hooks, t, pc, cmpVals(ir.ExprOp(c.C), m.Globals[c.A].Num, m.Globals[c.B].Num), code[cpc])
				cpc = entry[fr.PC]
				break dispatch

			case ir.BEndJump:
				fr.PC = int(c.A)
				cpc = entry[fr.PC]
				break dispatch

			case ir.BEndCall:
				fr.PC++ // resume after the call on return
				callee := m.newFrame(int(c.A), st[:c.B], pc)
				callee.bind = c.C
				t.Frames = append(t.Frames, callee)
				if hooks != nil {
					hooks.OnEnterFunc(t, int(c.A))
				}
				fr = callee
				fn, code, entry = fr.fn, fr.code.Code, fr.code.Entry
				cpc = entry[0]
				break dispatch

			case ir.BEndReturn:
				var ret Value
				if c.A != 0 {
					ret = st[sp-1]
				}
				exited, bind := fr.FuncIdx, fr.bind
				t.Frames = t.Frames[:len(t.Frames)-1]
				m.freeFrame(fr)
				if hooks != nil {
					hooks.OnExitFunc(t, exited)
				}
				if len(t.Frames) == 0 {
					t.Status = Done
					m.live--
					m.runnableOK = false
					return true, nil
				}
				fr = t.Frames[len(t.Frames)-1]
				fn, code, entry = fr.fn, fr.code.Code, fr.code.Entry
				if bind == 0 {
					cpc = entry[fr.PC]
					break dispatch
				}
				// Store the call result within this step: run the call
				// site's bind code on the caller's frame, with the result
				// on the stack. Its index and object reads fire now, after
				// the callee's exit, and a fault reports the return's pc.
				// The bind code ends the call's segment, so its store
				// terminal leaves cpc at the caller's next instruction.
				cpc = bind
				st[0] = ret
				sp = 1

			case ir.BEndAcquire:
				m.runnableOK = false
				holder := m.Locks[c.A]
				switch holder {
				case -1:
					m.Locks[c.A] = int32(t.ID)
					t.Syncs++
					t.Status = Runnable
					t.WaitLock = -1
					fr.PC++
					if t.Syncs < horizon {
						break dispatch
					}
				case int32(t.ID):
					m.crash(t, pc, fmt.Sprintf("recursive acquire of lock %q", m.Prog.Locks[c.A]))
				default:
					// The step observed the lock held; the thread blocks
					// without advancing. The observation still counts as a
					// step so spin-free progress accounting stays simple.
					t.Status = Blocked
					t.WaitLock = c.A
				}
				return true, nil

			case ir.BEndRelease:
				t.Syncs++
				m.released = m.TotalSteps
				if m.Locks[c.A] != int32(t.ID) {
					m.crash(t, pc, fmt.Sprintf("release of lock %q not held by thread %d", m.Prog.Locks[c.A], t.ID))
					return true, nil
				}
				m.Locks[c.A] = -1
				m.runnableOK = false
				fr.PC++
				if t.Syncs < horizon {
					break dispatch
				}
				return true, nil

			case ir.BEndSpawn:
				fr.PC++
				m.spawnThread(int(c.A), st[:c.B])
				break dispatch

			case ir.BEndAssert:
				if !st[sp-1].Bool() {
					m.crash(t, pc, "assertion failed: "+fn.Instrs[fr.PC].Msg)
					return true, nil
				}
				fr.PC++
				break dispatch

			case ir.BEndOutput:
				m.Output = append(m.Output, st[sp-1].Num)
				fr.PC++
				break dispatch

			default:
				return false, fmt.Errorf("interp: unknown bytecode op %v at %v", c.Op, pc)
			}
		}
		if m.TotalSteps >= limit || (atHorizon && fr.sync[fr.PC] != 0) {
			return true, nil
		}
	}
}

// branch fires OnBranch for the branch at pc and returns the ir target
// that taken selects: tg.A when it holds, tg.B otherwise. tg is a
// BEndBranch or the BTargets word after a compare-and-branch.
func branch(hooks Hooks, t *Thread, pc ir.PC, taken bool, tg ir.Code) int {
	if hooks != nil {
		hooks.OnBranch(t, pc, taken)
	}
	if taken {
		return int(tg.A)
	}
	return int(tg.B)
}

// cmpVals applies a comparison ExprOp to two numeric payloads —
// comparison is by payload: ints compare as ints, pointers by
// identity, `p == null` works because null carries payload 0.
func cmpVals(op ir.ExprOp, x, y int64) bool {
	switch op {
	case ir.ExEq:
		return x == y
	case ir.ExNe:
		return x != y
	case ir.ExLt:
		return x < y
	case ir.ExLe:
		return x <= y
	case ir.ExGt:
		return x > y
	case ir.ExGe:
		return x >= y
	}
	return false
}
