package interp

import (
	"fmt"

	"heisendump/internal/ir"
	"heisendump/internal/lang"
)

// ThreadStatus enumerates thread lifecycle states.
type ThreadStatus int

const (
	// Runnable threads can be stepped.
	Runnable ThreadStatus = iota
	// Blocked threads wait on a lock.
	Blocked
	// Done threads have returned from their entry function.
	Done
)

// Frame is one activation record.
type Frame struct {
	// FuncIdx indexes Prog.Funcs.
	FuncIdx int
	// PC is the index of the next instruction to execute.
	PC int
	// Locals holds local values by frame slot (the position of the name
	// in the function's ir.Func.Locals table); parameters are bound at
	// call. An unassigned slot reads as the zero value IntVal(0).
	Locals []Value
	// Live marks the slots that have been assigned (or parameter-bound)
	// in this activation. Core dumps snapshot only live locals, matching
	// the map-keyed interpreter that only materialized assigned names.
	Live []bool
	// CallSite is the caller's call instruction; the bottom frame has
	// CallSite.I == -1.
	CallSite ir.PC
	// ID uniquely identifies this activation across the whole run, so
	// traces can distinguish locals of different calls.
	ID int64

	// bind is the bytecode pc, in the caller's function, of the call
	// site's result-store code; 0 when the call discards its result.
	bind int32
	// fn and code are the frame's function and its bytecode image, and
	// sync is code.Sync: the dispatch loop reads them from the frame
	// where control enters or re-enters it, and sync at each step's
	// end from the horizon on, instead of indexing the program's
	// tables.
	fn   *ir.Func
	code *ir.BFunc
	sync []int32
}

// Thread is one thread of control.
type Thread struct {
	// ID is the creation-order thread id; the main thread is 0.
	ID int
	// EntryFunc indexes the thread's entry function.
	EntryFunc int
	Frames    []*Frame
	Status    ThreadStatus
	// WaitLock is the id of the lock the thread is blocked on, when
	// Blocked; -1 otherwise. Lock id i is named Prog.Locks[i].
	WaitLock int32
	// Steps counts instructions this thread has executed — the
	// "thread-local instruction count" used by the Table 5 baseline.
	Steps int64
	// Syncs counts the free acquires and the releases this thread has
	// completed: the ordinal a preemption candidate's Seq is measured
	// in. A release of a lock the thread does not hold faults, but the
	// step was taken, so it counts too.
	Syncs int
}

// Top returns the current activation record, or nil when done.
func (t *Thread) Top() *Frame {
	if len(t.Frames) == 0 {
		return nil
	}
	return t.Frames[len(t.Frames)-1]
}

// SyncOp reports the lock operation the thread's next instruction
// performs: an acquire or a release of lock, or neither (also when the
// thread has finished).
func (t *Thread) SyncOp() (lock int32, acquire, release bool) {
	if len(t.Frames) == 0 {
		return -1, false, false
	}
	fr := t.Frames[len(t.Frames)-1]
	switch s := fr.sync[fr.PC]; {
	case s > 0:
		return s - 1, true, false
	case s < 0:
		return -s - 1, false, true
	}
	return -1, false, false
}

// PC returns the thread's current program counter.
func (t *Thread) PC() ir.PC {
	f := t.Top()
	if f == nil {
		return ir.PC{F: t.EntryFunc, I: -1}
	}
	return ir.PC{F: f.FuncIdx, I: f.PC}
}

// CrashInfo records a run-terminating fault.
type CrashInfo struct {
	// ThreadID is the faulting thread.
	ThreadID int
	// PC addresses the faulting instruction.
	PC ir.PC
	// Reason describes the fault, e.g. "null pointer dereference".
	Reason string
}

// String formats the crash for reports.
func (c *CrashInfo) String() string {
	return fmt.Sprintf("thread %d crashed at %v: %s", c.ThreadID, c.PC, c.Reason)
}

// Hooks observe execution. All methods are called synchronously from
// Step; implementations must not mutate the machine. A nil hook field
// on the machine disables observation.
type Hooks interface {
	// BeforeInstr fires before each instruction executes (after the
	// thread is chosen), including synthetic instrumentation.
	BeforeInstr(t *Thread, pc ir.PC)
	// OnBranch fires when a branch resolves with the given outcome.
	OnBranch(t *Thread, pc ir.PC, taken bool)
	// OnEnterFunc fires when a frame is pushed: a thread's entry
	// function just before its first BeforeInstr (t.Steps is 0), a
	// callee right after its call instruction's step. A call that
	// faults while evaluating its arguments enters nothing.
	OnEnterFunc(t *Thread, fidx int)
	// OnExitFunc fires when a frame is popped.
	OnExitFunc(t *Thread, fidx int)
	// OnRead fires for each variable read during evaluation.
	OnRead(t *Thread, v VarID)
	// OnWrite fires for each variable written.
	OnWrite(t *Thread, v VarID)
}

// VarKind discriminates runtime variable identities.
type VarKind uint8

const (
	// VGlobal is a scalar global.
	VGlobal VarKind = iota
	// VArrayElem is an element of a global array.
	VArrayElem
	// VLocal is a function-local variable.
	VLocal
	// VField is a heap object field.
	VField
)

// VarID names one runtime storage location by the slot ids the machine
// already holds, so a hook builds it without a lookup and a trace
// interns it through dense tables. Names are rendered only at the
// edges, through the program's name tables (Name, Format).
type VarID struct {
	Kind VarKind
	// Func is a VLocal's function, an index into Prog.Funcs.
	Func int32
	// Slot is the scalar slot of a VGlobal (Prog.ScalarNames), the
	// array slot of a VArrayElem (Prog.ArrayNames), the local slot of a
	// VLocal (Prog.Funcs[Func].Locals) or the field-name id of a VField
	// (Prog.BC.Names).
	Slot int32
	// Idx qualifies the slot: a VArrayElem's element index, a VField's
	// object id (see Obj) and a VLocal's frame id (see Frame); 0 for a
	// VGlobal.
	Idx int64
}

// globalVar, elemVar, localVar and fieldVar build the identities the
// dispatch loop reports.
func globalVar(slot int32) VarID { return VarID{Kind: VGlobal, Slot: slot} }

func elemVar(slot int32, idx int64) VarID { return VarID{Kind: VArrayElem, Slot: slot, Idx: idx} }

func localVar(fr *Frame, slot int32) VarID {
	return VarID{Kind: VLocal, Func: int32(fr.FuncIdx), Slot: slot, Idx: fr.ID}
}

func fieldVar(name int32, obj ObjID) VarID { return VarID{Kind: VField, Slot: name, Idx: int64(obj)} }

// Obj returns a VField's owning object.
func (v VarID) Obj() ObjID { return ObjID(v.Idx) }

// Frame returns a VLocal's owning activation (Frame.ID).
func (v VarID) Frame() int64 { return v.Idx }

// Shared reports whether the location is shared state: globals, array
// elements and heap fields are shared; locals are thread-private.
func (v VarID) Shared() bool { return v.Kind != VLocal }

// Name returns the location's base name in prog: the global, array,
// local or field name; "var?" when v's ids are not prog's.
func (v VarID) Name(prog *ir.Program) string {
	at := func(names []string, i int32) string {
		if i < 0 || int(i) >= len(names) {
			return "var?"
		}
		return names[i]
	}
	switch v.Kind {
	case VGlobal:
		return at(prog.ScalarNames, v.Slot)
	case VArrayElem:
		return at(prog.ArrayNames, v.Slot)
	case VLocal:
		if v.Func < 0 || int(v.Func) >= len(prog.Funcs) {
			return "var?"
		}
		return at(prog.Funcs[v.Func].Locals, v.Slot)
	case VField:
		return at(prog.BC.Names, v.Slot)
	}
	return "var?"
}

// Format renders the location for reports: "g", "a[3]", "l#9" (frame
// 9) or "obj2.f".
func (v VarID) Format(prog *ir.Program) string {
	switch v.Kind {
	case VGlobal:
		return v.Name(prog)
	case VArrayElem:
		return fmt.Sprintf("%s[%d]", v.Name(prog), v.Idx)
	case VLocal:
		return fmt.Sprintf("%s#%d", v.Name(prog), v.Idx)
	case VField:
		return fmt.Sprintf("obj%d.%s", v.Idx, v.Name(prog))
	}
	return "var?"
}

// Input provides the program's failure-inducing input: initial values
// for global scalars and arrays, applied before the run starts. The
// same Input drives the failing run and every re-execution.
//
// Seeded values are interpreted against the declared type of the
// global: int globals take the value as-is, bool globals normalize any
// non-zero value to true (so equality against BoolVal(true) behaves),
// and pointer globals cannot be seeded (a seed cannot forge a heap
// reference). Use ValidateInput to surface violations as typed errors
// instead of relying on the normalization.
type Input struct {
	Scalars map[string]int64
	Arrays  map[string][]int64
}

// Machine executes one program instance. Storage is slot-addressed:
// Globals[i] is the scalar named Prog.ScalarNames[i], Arrays[i] the
// array named Prog.ArrayNames[i], Heap[i] the object with ObjID i+1,
// and Locks[i] the holder of the lock named Prog.Locks[i]. Use
// Global/ArrayByName/LockHolder for name-keyed access in tests and
// tools.
type Machine struct {
	Prog *ir.Program

	Globals []Value
	Arrays  [][]int64
	Heap    []Object
	Locks   []int32 // holder thread id by lock id, -1 when free
	Threads []*Thread

	// Output collects values emitted by output statements.
	Output []int64

	// Crash is non-nil once the run has faulted.
	Crash *CrashInfo

	// TotalSteps counts instructions across all threads.
	TotalSteps int64

	// Hooks, when non-nil, observe execution.
	Hooks Hooks

	// MaxSteps aborts runaway executions; ErrStepLimit is reported once
	// exceeded. Zero means no limit. Preserved across Reset.
	MaxSteps int64

	input     *Input
	nextFrame int64

	// stack is the dispatch loop's per-step value scratch space, sized
	// by Reset from the program's compile-time MaxStack.
	stack []Value

	// Free lists recycle the per-run allocations across Reset calls, so
	// a machine re-executing millions of schedule-search trials reaches
	// a steady state with zero per-step allocations. Heap objects need
	// none: Reset truncates Heap, and a `new` reuses the slot's storage.
	freeFrames  []*Frame
	freeThreads []*Thread

	// live counts the threads that have not finished, so Done is O(1).
	live int
	// runnable caches Runnable's answer while runnableOK is set. Only
	// the events that can change the set clear the flag — an acquire
	// (the acquirer may block; waiters on that lock stop being
	// runnable), a release, a thread exit and Reset — and a spawn
	// appends its thread in place, so a scheduler that asks every step
	// rescans only after those events. A rescan walks unfinished, the
	// threads in id order minus those found finished by an earlier
	// rescan, so it costs the live threads rather than every thread
	// the run ever spawned.
	runnable   []int
	runnableOK bool
	unfinished []*Thread
	// released is TotalSteps right after the latest release instruction
	// (see Released), or -1: Reset and every RunBurst clear it, so a
	// burst that executes nothing does not read as ending on the
	// previous burst's release.
	released int64
}

// ErrStepLimit is returned by Step when MaxSteps is exceeded.
var ErrStepLimit = fmt.Errorf("interp: step limit exceeded")

// ErrDeadlock is returned by schedulers when no thread can make
// progress.
var ErrDeadlock = fmt.Errorf("interp: deadlock")

// New creates a machine with the main thread ready to run.
func New(prog *ir.Program, in *Input) *Machine {
	m := &Machine{}
	m.Reset(prog, in)
	return m
}

// SeedInput returns the input the machine was last built (or Reset)
// with; callers re-running the same configuration pass it back to
// Reset. May be nil.
func (m *Machine) SeedInput() *Input { return m.input }

// Reset rebinds the machine to prog seeded with in and rewinds it to
// the initial state: main thread ready, globals and arrays
// re-initialized from the declarations and the input, heap and locks
// cleared, step and output counters zeroed. MaxSteps and Hooks are
// preserved. A Reset machine is observationally identical to
// New(prog, in) — frame ids, object ids and thread ids restart — but
// reuses all prior storage, so per-trial re-executions allocate
// nothing in the steady state. Anything still aliasing that storage —
// e.g. the Output slice a previous run's result captured — is
// invalidated; snapshot before resetting. Reset only reads in (array
// seeds are copied), so a shared Input may seed many machines
// concurrently.
func (m *Machine) Reset(prog *ir.Program, in *Input) {
	m.Prog = prog
	m.input = in

	// Scalar globals: declared init, then input seed normalized per the
	// declared type (see Input).
	if cap(m.Globals) < len(prog.ScalarNames) {
		m.Globals = make([]Value, len(prog.ScalarNames))
	}
	m.Globals = m.Globals[:len(prog.ScalarNames)]
	for i, g := range prog.ScalarDecls {
		switch g.Type {
		case lang.TypeBool:
			m.Globals[i] = BoolVal(g.Init != 0)
		case lang.TypePtr:
			m.Globals[i] = Null
		default:
			m.Globals[i] = IntVal(g.Init)
		}
	}

	// Arrays: zeroed to the declared size, then seeded. A seed longer
	// than the declared size is truncated here; ValidateInput reports
	// the mismatch as a typed error before any pipeline run.
	if cap(m.Arrays) < len(prog.ArrayNames) {
		m.Arrays = make([][]int64, len(prog.ArrayNames))
	}
	m.Arrays = m.Arrays[:len(prog.ArrayNames)]
	for i, g := range prog.ArrayDecls {
		if cap(m.Arrays[i]) < g.ArraySize {
			m.Arrays[i] = make([]int64, g.ArraySize)
		}
		m.Arrays[i] = m.Arrays[i][:g.ArraySize]
		clear(m.Arrays[i])
	}

	// Seeds are resolved by name, so a run with no input (every Table 2
	// bug's) skips the lookups and the map iterations.
	if in != nil && len(in.Scalars) > 0 {
		for name, v := range in.Scalars {
			slot := prog.GlobalSlot(name)
			if slot < 0 {
				continue
			}
			switch prog.ScalarDecls[slot].Type {
			case lang.TypeBool:
				m.Globals[slot] = BoolVal(v != 0)
			case lang.TypePtr:
				// A pointer cannot be seeded from an integer dump value;
				// keep the declared null rather than forging an object id.
			default:
				m.Globals[slot] = IntVal(v)
			}
		}
	}
	if in != nil && len(in.Arrays) > 0 {
		for name, vals := range in.Arrays {
			if slot := prog.ArraySlot(name); slot >= 0 {
				copy(m.Arrays[slot], vals)
			}
		}
	}

	if cap(m.Locks) < len(prog.Locks) {
		m.Locks = make([]int32, len(prog.Locks))
	}
	m.Locks = m.Locks[:len(prog.Locks)]
	for i := range m.Locks {
		m.Locks[i] = -1
	}

	// Drop the heap objects, keeping their storage, and return every
	// thread and frame to the free lists before anything is rebuilt.
	m.Heap = m.Heap[:0]
	for _, t := range m.Threads {
		m.freeFrames = append(m.freeFrames, t.Frames...)
		t.Frames = t.Frames[:0]
		m.freeThreads = append(m.freeThreads, t)
	}
	m.Threads = m.Threads[:0]
	m.live = 0
	m.runnableOK = false
	m.unfinished = m.unfinished[:0]
	m.Output = m.Output[:0]
	m.Crash = nil
	m.TotalSteps = 0
	m.released = -1
	m.nextFrame = 0

	m.ensureStack(prog)
	m.spawnThread(prog.Main, nil)
}

// spawnThread creates a thread running function fidx with bound args.
// The entry function's OnEnterFunc hook fires on the thread's first
// step, not here: the main thread is spawned inside New, before the
// caller has had a chance to attach hooks.
func (m *Machine) spawnThread(fidx int, args []Value) *Thread {
	var t *Thread
	if n := len(m.freeThreads); n > 0 {
		t = m.freeThreads[n-1]
		m.freeThreads = m.freeThreads[:n-1]
		*t = Thread{Frames: t.Frames[:0]}
	} else {
		t = &Thread{}
	}
	t.ID = len(m.Threads)
	t.EntryFunc = fidx
	t.Status = Runnable
	t.WaitLock = -1
	t.Frames = append(t.Frames, m.newFrame(fidx, args, ir.PC{F: -1, I: -1}))
	m.Threads = append(m.Threads, t)
	m.unfinished = append(m.unfinished, t)
	m.live++
	if m.runnableOK {
		// The new thread is runnable and has the highest id, so the
		// sorted cache stays valid with it appended.
		m.runnable = append(m.runnable, t.ID)
	}
	return t
}

// newFrame builds an activation record for fidx, drawing from the
// frame free list when possible.
func (m *Machine) newFrame(fidx int, args []Value, callSite ir.PC) *Frame {
	fn := m.Prog.Funcs[fidx]
	nLocals := len(fn.Locals)
	var fr *Frame
	if n := len(m.freeFrames); n > 0 {
		fr = m.freeFrames[n-1]
		m.freeFrames = m.freeFrames[:n-1]
	} else {
		fr = &Frame{}
	}
	if cap(fr.Locals) < nLocals {
		fr.Locals = make([]Value, nLocals)
		fr.Live = make([]bool, nLocals)
	}
	fr.Locals = fr.Locals[:nLocals]
	fr.Live = fr.Live[:nLocals]
	clear(fr.Locals)
	clear(fr.Live)
	fr.FuncIdx = fidx
	fr.fn = fn
	fr.code = m.Prog.BC.Funcs[fidx]
	fr.sync = fr.code.Sync
	fr.PC = 0
	fr.CallSite = callSite
	fr.bind = 0
	m.nextFrame++
	fr.ID = m.nextFrame
	for i := range fn.Params {
		if i < len(args) {
			fr.Locals[i] = args[i]
			fr.Live[i] = true
		}
	}
	return fr
}

// freeFrame returns a popped frame to the free list.
func (m *Machine) freeFrame(fr *Frame) {
	m.freeFrames = append(m.freeFrames, fr)
}

// newObject appends an object with the compiled field set names, all
// zero, to the heap and returns its id. The slot's storage from an
// earlier run is reused, so a warm machine allocates nothing. The
// object shares names, clipped to its length so that a store adding a
// field copies them instead of writing into the shared array.
func (m *Machine) newObject(names []int32) ObjID {
	n := len(m.Heap)
	if n < cap(m.Heap) {
		m.Heap = m.Heap[:n+1]
	} else {
		m.Heap = append(m.Heap, Object{})
	}
	o := &m.Heap[n]
	o.Names = names[:len(names):len(names)]
	if cap(o.Vals) < len(names) {
		o.Vals = make([]Value, len(names))
	}
	o.Vals = o.Vals[:len(names)]
	for i := range o.Vals {
		o.Vals[i] = IntVal(0)
	}
	return ObjID(n + 1)
}

// object returns the object p points to, or nil when p is null, not a
// pointer or dangling; badPointer then records the fault.
func (m *Machine) object(p Value) *Object {
	if i := uint64(p.Num - 1); p.Kind == KPtr && i < uint64(len(m.Heap)) {
		return &m.Heap[i]
	}
	return nil
}

// badPointer crashes the machine on a dereference of p, which object
// refused.
func (m *Machine) badPointer(t *Thread, pc ir.PC, p Value) {
	if p.Kind != KPtr || p.Obj() == 0 {
		m.crash(t, pc, "null pointer dereference")
		return
	}
	m.crash(t, pc, fmt.Sprintf("dangling pointer obj#%d", p.Obj()))
}

// Global returns the value of the named global scalar, or the zero
// Value when no such scalar exists.
func (m *Machine) Global(name string) Value {
	if slot := m.Prog.GlobalSlot(name); slot >= 0 {
		return m.Globals[slot]
	}
	return Value{}
}

// ArrayByName returns the named global array's storage, or nil.
func (m *Machine) ArrayByName(name string) []int64 {
	if slot := m.Prog.ArraySlot(name); slot >= 0 {
		return m.Arrays[slot]
	}
	return nil
}

// LockHolder returns the holder thread id of the named lock, or -1
// when the lock is free or unknown.
func (m *Machine) LockHolder(name string) int {
	if id := m.Prog.LockID(name); id >= 0 {
		return int(m.Locks[id])
	}
	return -1
}

// Runnable returns the ids of threads that can currently be stepped,
// in ascending order. Threads blocked on a lock become runnable again
// when it frees. The set is cached between the events that can change
// it (see Machine.runnable), so asking every step costs a scan of the
// unfinished threads only after a sync operation or a thread exit. The
// returned slice is the machine's own: callers must not modify it, and
// callers that retain it past the next step must copy.
func (m *Machine) Runnable() []int {
	if !m.runnableOK {
		out, live := m.runnable[:0], m.unfinished[:0]
		for _, t := range m.unfinished {
			if t.Status == Done {
				continue
			}
			live = append(live, t)
			if m.threadRunnable(t) {
				out = append(out, t.ID)
			}
		}
		m.runnable, m.unfinished = out, live
		m.runnableOK = true
	}
	return m.runnable
}

func (m *Machine) threadRunnable(t *Thread) bool {
	switch t.Status {
	case Runnable:
		return true
	case Blocked:
		return m.Locks[t.WaitLock] == -1
	}
	return false
}

// Done reports whether every thread has finished.
func (m *Machine) Done() bool { return m.live == 0 }

// Crashed reports whether the run has faulted.
func (m *Machine) Crashed() bool { return m.Crash != nil }

// Released reports whether the last instruction the machine executed
// was a release, including one that faulted on a lock its thread does
// not hold. After a RunBurst that executed nothing it is false.
func (m *Machine) Released() bool { return m.released == m.TotalSteps }

// crash records a fault and stops the machine.
func (m *Machine) crash(t *Thread, pc ir.PC, reason string) {
	m.Crash = &CrashInfo{ThreadID: t.ID, PC: pc, Reason: reason}
}
