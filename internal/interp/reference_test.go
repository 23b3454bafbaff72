package interp_test

// The reference interpreter: a name-map execution mode that resolves
// every local, global, array and lock through string-keyed maps at
// run time — the semantics the slot-addressed machine compiled away.
// It executes the Src* (source AST) operands that ir.Compile retains
// on every instruction, so it shares nothing with the slot-addressed
// evaluation path beyond the instruction stream itself.
//
// The round-trip tests below run every corpus workload, the call-result
// binding programs and a range of generated programs under both the
// machine and the reference — same program, same input, same schedule
// — and assert that the traces (including per-step reads/writes,
// branch outcomes and call marks), crashes and outputs are identical.
// This pins the compile-time variable resolution and the bytecode
// lowering to the map-resolution semantics they replaced.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"heisendump/internal/coredump"
	"heisendump/internal/gen"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/progcache"
	"heisendump/internal/sched"
	"heisendump/internal/trace"
	"heisendump/internal/workloads"
)

// refFrame is one activation record of the reference machine.
type refFrame struct {
	funcIdx int
	pc      int
	locals  map[string]interp.Value
	id      int64
}

// refThread is one thread of the reference machine.
type refThread struct {
	id        int
	entryFunc int
	frames    []*refFrame
	status    interp.ThreadStatus
	waitLock  string
	steps     int64
}

func (t *refThread) top() *refFrame {
	if len(t.frames) == 0 {
		return nil
	}
	return t.frames[len(t.frames)-1]
}

// refMachine executes a compiled program by re-resolving every name
// through maps, as the interpreter did before slot compilation. It
// drives the same interp.Hooks interface, reporting the same
// interp.VarID identities (each name resolved to its slot through the
// program's tables at the hook), so its traces are directly comparable
// with the slot-addressed machine's.
type refMachine struct {
	prog    *ir.Program
	globals map[string]interp.Value
	arrays  map[string][]int64
	heap    map[interp.ObjID]map[string]interp.Value
	locks   map[string]int
	threads []*refThread
	output  []int64
	crash   *interp.CrashInfo
	hooks   interp.Hooks

	nextObj   interp.ObjID
	nextFrame int64

	// hookThreads mirrors refThreads as interp.Thread values so hook
	// implementations (recorders) see the same thread ids.
	hookThreads []*interp.Thread
}

type refCrash struct{ reason string }

func (e refCrash) Error() string { return e.reason }

func newRefMachine(prog *ir.Program, in *interp.Input) *refMachine {
	m := &refMachine{
		prog:    prog,
		globals: map[string]interp.Value{},
		arrays:  map[string][]int64{},
		heap:    map[interp.ObjID]map[string]interp.Value{},
		locks:   map[string]int{},
		nextObj: 1,
	}
	for _, g := range prog.Globals {
		if g.ArraySize > 0 {
			m.arrays[g.Name] = make([]int64, g.ArraySize)
		} else {
			switch g.Type {
			case lang.TypeBool:
				m.globals[g.Name] = interp.BoolVal(g.Init != 0)
			case lang.TypePtr:
				m.globals[g.Name] = interp.Null
			default:
				m.globals[g.Name] = interp.IntVal(g.Init)
			}
		}
	}
	for _, l := range prog.Locks {
		m.locks[l] = -1
	}
	if in != nil {
		for name, v := range in.Scalars {
			if g := declOf(prog, name); g != nil && g.ArraySize == 0 {
				switch g.Type {
				case lang.TypeBool:
					m.globals[name] = interp.BoolVal(v != 0)
				case lang.TypePtr:
					// Pointer seeds are rejected (kept null).
				default:
					m.globals[name] = interp.IntVal(v)
				}
			}
		}
		for name, vals := range in.Arrays {
			if arr, ok := m.arrays[name]; ok {
				copy(arr, vals)
			}
		}
	}
	m.spawn(prog.FuncIndex("main"), nil)
	return m
}

func declOf(prog *ir.Program, name string) *lang.VarDecl {
	for _, g := range prog.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

func (m *refMachine) spawn(fidx int, args []interp.Value) {
	t := &refThread{id: len(m.threads), entryFunc: fidx, status: interp.Runnable}
	t.frames = append(t.frames, m.newFrame(fidx, args))
	m.threads = append(m.threads, t)
	m.hookThreads = append(m.hookThreads, &interp.Thread{ID: t.id, EntryFunc: fidx})
}

func (m *refMachine) newFrame(fidx int, args []interp.Value) *refFrame {
	fn := m.prog.Funcs[fidx]
	fr := &refFrame{funcIdx: fidx, locals: map[string]interp.Value{}}
	m.nextFrame++
	fr.id = m.nextFrame
	for i, p := range fn.Params {
		if i < len(args) {
			fr.locals[p] = args[i]
		}
	}
	return fr
}

// ht returns the hook-facing interp.Thread mirror of thread tid,
// updated with the fields recorders read.
func (m *refMachine) ht(t *refThread) *interp.Thread {
	h := m.hookThreads[t.id]
	h.Steps = t.steps
	return h
}

func (m *refMachine) runnable(t *refThread) bool {
	switch t.status {
	case interp.Runnable:
		return true
	case interp.Blocked:
		return m.locks[t.waitLock] == -1
	}
	return false
}

func (m *refMachine) done() bool {
	for _, t := range m.threads {
		if t.status != interp.Done {
			return false
		}
	}
	return true
}

func isLocalName(fn *ir.Func, name string) bool {
	return fn.LocalSlot(name) >= 0
}

// step executes one instruction of thread tid; the reference analogue
// of Machine.Step, resolving names through maps.
func (m *refMachine) step(tid int) bool {
	if m.crash != nil {
		return false
	}
	t := m.threads[tid]
	if !m.runnable(t) {
		return false
	}
	fr := t.top()
	fn := m.prog.Funcs[fr.funcIdx]
	pc := ir.PC{F: fr.funcIdx, I: fr.pc}
	in := &fn.Instrs[fr.pc]

	if m.hooks != nil {
		if t.steps == 0 {
			m.hooks.OnEnterFunc(m.ht(t), t.entryFunc)
		}
		m.hooks.BeforeInstr(m.ht(t), pc)
	}
	t.steps++

	fault := func(err error) bool {
		if ce, ok := err.(refCrash); ok {
			m.crash = &interp.CrashInfo{ThreadID: t.id, PC: pc, Reason: ce.reason}
			return true
		}
		panic(err)
	}

	switch in.Op {
	case ir.OpAssign:
		v, err := m.eval(t, in.SrcRHS)
		if err != nil {
			return fault(err)
		}
		if err := m.assign(t, in.SrcLHS, v); err != nil {
			return fault(err)
		}
		fr.pc++

	case ir.OpBranch:
		v, err := m.eval(t, in.SrcCond)
		if err != nil {
			return fault(err)
		}
		taken := v.Bool()
		if m.hooks != nil {
			m.hooks.OnBranch(m.ht(t), pc, taken)
		}
		if taken {
			fr.pc = in.True
		} else {
			fr.pc = in.False
		}

	case ir.OpJump:
		fr.pc = in.True

	case ir.OpCall:
		callee := m.prog.FuncIndex(in.CalleeName)
		args, err := m.evalList(t, in.SrcArgs)
		if err != nil {
			return fault(err)
		}
		fr.pc++
		t.frames = append(t.frames, m.newFrame(callee, args))
		if m.hooks != nil {
			m.hooks.OnEnterFunc(m.ht(t), callee)
		}

	case ir.OpReturn:
		var ret interp.Value
		if in.SrcRHS != nil {
			v, err := m.eval(t, in.SrcRHS)
			if err != nil {
				return fault(err)
			}
			ret = v
		}
		exited := fr.funcIdx
		t.frames = t.frames[:len(t.frames)-1]
		if m.hooks != nil {
			m.hooks.OnExitFunc(m.ht(t), exited)
		}
		if len(t.frames) == 0 {
			t.status = interp.Done
			break
		}
		caller := t.top()
		callIn := &m.prog.Funcs[caller.funcIdx].Instrs[caller.pc-1]
		if callIn.Op == ir.OpCall && callIn.SrcLHS != nil {
			if err := m.assign(t, callIn.SrcLHS, ret); err != nil {
				return fault(err)
			}
		}

	case ir.OpAcquire:
		switch holder := m.locks[in.LockName]; holder {
		case -1:
			m.locks[in.LockName] = t.id
			t.status = interp.Runnable
			t.waitLock = ""
			fr.pc++
		case t.id:
			return fault(refCrash{fmt.Sprintf("recursive acquire of lock %q", in.LockName)})
		default:
			t.status = interp.Blocked
			t.waitLock = in.LockName
		}

	case ir.OpRelease:
		if m.locks[in.LockName] != t.id {
			return fault(refCrash{fmt.Sprintf("release of lock %q not held by thread %d", in.LockName, t.id)})
		}
		m.locks[in.LockName] = -1
		fr.pc++

	case ir.OpSpawn:
		args, err := m.evalList(t, in.SrcArgs)
		if err != nil {
			return fault(err)
		}
		fr.pc++
		m.spawn(m.prog.FuncIndex(in.CalleeName), args)

	case ir.OpAssert:
		v, err := m.eval(t, in.SrcCond)
		if err != nil {
			return fault(err)
		}
		if !v.Bool() {
			m.crash = &interp.CrashInfo{ThreadID: t.id, PC: pc, Reason: "assertion failed: " + in.Msg}
			return true
		}
		fr.pc++

	case ir.OpOutput:
		v, err := m.eval(t, in.SrcRHS)
		if err != nil {
			return fault(err)
		}
		m.output = append(m.output, v.Num)
		fr.pc++
	}
	return true
}

func (m *refMachine) evalList(t *refThread, args []lang.Expr) ([]interp.Value, error) {
	out := make([]interp.Value, 0, len(args))
	for _, a := range args {
		v, err := m.eval(t, a)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (m *refMachine) eval(t *refThread, e lang.Expr) (interp.Value, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return interp.IntVal(e.Value), nil
	case *lang.BoolLit:
		return interp.BoolVal(e.Value), nil
	case *lang.NullLit:
		return interp.Null, nil
	case *lang.VarRef:
		return m.readVar(t, e.Name)
	case *lang.IndexExpr:
		idx, err := m.eval(t, e.Index)
		if err != nil {
			return interp.Value{}, err
		}
		arr, ok := m.arrays[e.Name]
		if !ok {
			return interp.Value{}, refCrash{fmt.Sprintf("no such array %q", e.Name)}
		}
		if idx.Num < 0 || idx.Num >= int64(len(arr)) {
			return interp.Value{}, refCrash{fmt.Sprintf("index %d out of bounds for %s[%d]", idx.Num, e.Name, len(arr))}
		}
		if m.hooks != nil {
			m.hooks.OnRead(m.ht(t), m.elemID(e.Name, idx.Num))
		}
		return interp.IntVal(arr[idx.Num]), nil
	case *lang.FieldExpr:
		obj, err := m.eval(t, e.Obj)
		if err != nil {
			return interp.Value{}, err
		}
		if obj.Kind != interp.KPtr || obj.Obj() == 0 {
			return interp.Value{}, refCrash{"null pointer dereference"}
		}
		fields, ok := m.heap[obj.Obj()]
		if !ok {
			return interp.Value{}, refCrash{fmt.Sprintf("dangling pointer obj#%d", obj.Obj())}
		}
		v, ok := fields[e.Field]
		if !ok {
			return interp.Value{}, refCrash{fmt.Sprintf("object has no field %q", e.Field)}
		}
		if m.hooks != nil {
			m.hooks.OnRead(m.ht(t), m.fieldID(e.Field, obj.Obj()))
		}
		return v, nil
	case *lang.NewExpr:
		fields := make(map[string]interp.Value, len(e.Fields))
		for _, f := range e.Fields {
			fields[f] = interp.IntVal(0)
		}
		id := m.nextObj
		m.nextObj++
		m.heap[id] = fields
		return interp.PtrVal(id), nil
	case *lang.UnaryExpr:
		x, err := m.eval(t, e.X)
		if err != nil {
			return interp.Value{}, err
		}
		if e.Op == "!" {
			return interp.BoolVal(!x.Bool()), nil
		}
		return interp.IntVal(-x.Num), nil
	case *lang.BinaryExpr:
		switch e.Op {
		case "&&":
			x, err := m.eval(t, e.X)
			if err != nil || !x.Bool() {
				return interp.BoolVal(false), err
			}
			y, err := m.eval(t, e.Y)
			return interp.BoolVal(y.Bool()), err
		case "||":
			x, err := m.eval(t, e.X)
			if err != nil || x.Bool() {
				return interp.BoolVal(x.Bool()), err
			}
			y, err := m.eval(t, e.Y)
			return interp.BoolVal(y.Bool()), err
		}
		x, err := m.eval(t, e.X)
		if err != nil {
			return interp.Value{}, err
		}
		y, err := m.eval(t, e.Y)
		if err != nil {
			return interp.Value{}, err
		}
		switch e.Op {
		case "+":
			return interp.IntVal(x.Num + y.Num), nil
		case "-":
			return interp.IntVal(x.Num - y.Num), nil
		case "*":
			return interp.IntVal(x.Num * y.Num), nil
		case "/":
			if y.Num == 0 {
				return interp.Value{}, refCrash{"division by zero"}
			}
			return interp.IntVal(x.Num / y.Num), nil
		case "%":
			if y.Num == 0 {
				return interp.Value{}, refCrash{"division by zero"}
			}
			return interp.IntVal(x.Num % y.Num), nil
		case "==":
			return interp.BoolVal(x.Num == y.Num), nil
		case "!=":
			return interp.BoolVal(x.Num != y.Num), nil
		case "<":
			return interp.BoolVal(x.Num < y.Num), nil
		case "<=":
			return interp.BoolVal(x.Num <= y.Num), nil
		case ">":
			return interp.BoolVal(x.Num > y.Num), nil
		case ">=":
			return interp.BoolVal(x.Num >= y.Num), nil
		}
	}
	panic(fmt.Sprintf("ref: unknown expression %T", e))
}

// globalID, elemID, fieldID and localID resolve a name to the slot id
// the machine reports it by.
func (m *refMachine) globalID(name string) interp.VarID {
	return interp.VarID{Kind: interp.VGlobal, Slot: int32(m.prog.GlobalSlot(name))}
}

func (m *refMachine) elemID(name string, idx int64) interp.VarID {
	return interp.VarID{Kind: interp.VArrayElem, Slot: int32(m.prog.ArraySlot(name)), Idx: idx}
}

func (m *refMachine) fieldID(name string, obj interp.ObjID) interp.VarID {
	return interp.VarID{Kind: interp.VField, Slot: m.prog.BC.NameID(name), Idx: int64(obj)}
}

func (m *refMachine) localID(fr *refFrame, name string) interp.VarID {
	return interp.VarID{Kind: interp.VLocal, Func: int32(fr.funcIdx),
		Slot: int32(slices.Index(m.prog.Funcs[fr.funcIdx].Locals, name)), Idx: fr.id}
}

func (m *refMachine) readVar(t *refThread, name string) (interp.Value, error) {
	fr := t.top()
	if v, ok := fr.locals[name]; ok {
		if m.hooks != nil {
			m.hooks.OnRead(m.ht(t), m.localID(fr, name))
		}
		return v, nil
	}
	if isLocalName(m.prog.Funcs[fr.funcIdx], name) {
		if m.hooks != nil {
			m.hooks.OnRead(m.ht(t), m.localID(fr, name))
		}
		return interp.IntVal(0), nil
	}
	if v, ok := m.globals[name]; ok {
		if m.hooks != nil {
			m.hooks.OnRead(m.ht(t), m.globalID(name))
		}
		return v, nil
	}
	return interp.Value{}, refCrash{fmt.Sprintf("undefined variable %q", name)}
}

func (m *refMachine) assign(t *refThread, lv lang.LValue, v interp.Value) error {
	switch lv := lv.(type) {
	case *lang.VarLV:
		fr := t.top()
		if _, ok := fr.locals[lv.Name]; ok || isLocalName(m.prog.Funcs[fr.funcIdx], lv.Name) {
			fr.locals[lv.Name] = v
			if m.hooks != nil {
				m.hooks.OnWrite(m.ht(t), m.localID(fr, lv.Name))
			}
			return nil
		}
		if _, ok := m.globals[lv.Name]; ok {
			m.globals[lv.Name] = v
			if m.hooks != nil {
				m.hooks.OnWrite(m.ht(t), m.globalID(lv.Name))
			}
			return nil
		}
		return refCrash{fmt.Sprintf("assignment to undefined variable %q", lv.Name)}
	case *lang.IndexLV:
		idx, err := m.eval(t, lv.Index)
		if err != nil {
			return err
		}
		arr, ok := m.arrays[lv.Name]
		if !ok {
			return refCrash{fmt.Sprintf("no such array %q", lv.Name)}
		}
		if idx.Num < 0 || idx.Num >= int64(len(arr)) {
			return refCrash{fmt.Sprintf("index %d out of bounds for %s[%d]", idx.Num, lv.Name, len(arr))}
		}
		arr[idx.Num] = v.Num
		if m.hooks != nil {
			m.hooks.OnWrite(m.ht(t), m.elemID(lv.Name, idx.Num))
		}
		return nil
	case *lang.FieldLV:
		obj, err := m.eval(t, lv.Obj)
		if err != nil {
			return err
		}
		if obj.Kind != interp.KPtr || obj.Obj() == 0 {
			return refCrash{"null pointer dereference"}
		}
		fields, ok := m.heap[obj.Obj()]
		if !ok {
			return refCrash{fmt.Sprintf("dangling pointer obj#%d", obj.Obj())}
		}
		fields[lv.Field] = v
		if m.hooks != nil {
			m.hooks.OnWrite(m.ht(t), m.fieldID(lv.Field, obj.Obj()))
		}
		return nil
	}
	panic(fmt.Sprintf("ref: unknown lvalue %T", lv))
}

// replay drives the reference machine through a recorded schedule.
func (m *refMachine) replay(schedule []int) {
	for _, tid := range schedule {
		if !m.step(tid) {
			break
		}
	}
}

// refRun captures one execution for comparison: its trace events,
// each step's reads and writes, its crash and its output.
type refRun struct {
	events        []trace.Event
	reads, writes [][]interp.VarID
	crash         *interp.CrashInfo
	output        []int64
}

// accessLog records a trace and, independently of the recorder's
// interning, logs the variables each step reads and writes as the
// hooks report them.
type accessLog struct {
	*trace.Recorder
	reads, writes [][]interp.VarID
}

func (l *accessLog) BeforeInstr(t *interp.Thread, pc ir.PC) {
	l.reads = append(l.reads, nil)
	l.writes = append(l.writes, nil)
	l.Recorder.BeforeInstr(t, pc)
}

func (l *accessLog) OnRead(t *interp.Thread, v interp.VarID) {
	l.reads[len(l.reads)-1] = append(l.reads[len(l.reads)-1], v)
	l.Recorder.OnRead(t, v)
}

func (l *accessLog) OnWrite(t *interp.Thread, v interp.VarID) {
	l.writes[len(l.writes)-1] = append(l.writes[len(l.writes)-1], v)
	l.Recorder.OnWrite(t, v)
}

// runReference replays schedule on a fresh reference machine.
func runReference(prog *ir.Program, in *interp.Input, schedule []int) refRun {
	return replayReference(newRefMachine(prog, in), schedule)
}

// replayReference replays schedule on m, logging its accesses.
func replayReference(m *refMachine, schedule []int) refRun {
	log := &accessLog{Recorder: trace.NewRecorder()}
	m.hooks = log
	m.replay(schedule)
	return refRun{events: log.Events, reads: log.reads, writes: log.writes, crash: m.crash, output: m.output}
}

// runSlot executes schedule on the slot-addressed machine. The machine
// is built once and Reset before the run, so the round-trip also
// exercises the reset/free-list lifecycle rather than only a virgin
// machine.
func runSlot(prog *ir.Program, in *interp.Input, schedule []int) refRun {
	m := interp.New(prog, in)
	// Burn one partial run, then rewind: the post-Reset state must be
	// indistinguishable from a fresh machine.
	sched.BoundedRunContext(context.Background(), m, sched.NewCooperative(), 25)
	m.Reset(prog, in)
	out, _ := recordSlot(m, sched.NewReplayer(schedule))
	return out
}

// recordSlot runs m under s with a recorder attached. It returns the
// run, with its reads and writes the recorder's resolved to variables,
// and the schedule it took.
func recordSlot(m *interp.Machine, s sched.Scheduler) (refRun, []int) {
	rec := trace.NewRecorder()
	m.Hooks = rec
	res := sched.Runner{Record: true}.Run(m, s)
	out := refRun{events: rec.Events, crash: m.Crash, output: m.Output}
	vars := func(ids []int32) []interp.VarID {
		var vs []interp.VarID
		for _, id := range ids {
			vs = append(vs, rec.Vars[id])
		}
		return vs
	}
	for i := range rec.Events {
		out.reads = append(out.reads, vars(rec.Reads(i)))
		out.writes = append(out.writes, vars(rec.Writes(i)))
	}
	return out, res.Schedule
}

// schedulesFor produces the deterministic and a handful of random
// schedules of the workload, recorded from the slot machine (the
// reference machine replays them; blocked-acquire steps count as steps
// in both, so schedules transfer verbatim).
func schedulesFor(t *testing.T, prog *ir.Program, in *interp.Input, seeds int) [][]int {
	t.Helper()
	var out [][]int
	m := interp.New(prog, in)
	m.MaxSteps = 1_000_000
	rec := sched.Runner{Record: true}
	res := rec.Run(m, sched.NewCooperative())
	out = append(out, append([]int(nil), res.Schedule...))
	for seed := int64(0); seed < int64(seeds); seed++ {
		m.Reset(prog, in)
		res := rec.Run(m, sched.NewRandom(seed))
		out = append(out, append([]int(nil), res.Schedule...))
	}
	return out
}

// compareRuns asserts that two executions are observably identical:
// same trace events (with branch outcomes and call marks), same reads
// and writes at every step, same crash and same output.
func compareRuns(t *testing.T, label string, got, want refRun) {
	t.Helper()
	if len(got.events) != len(want.events) {
		t.Fatalf("%s: %d events vs %d", label, len(got.events), len(want.events))
	}
	for i := range got.events {
		if !reflect.DeepEqual(got.events[i], want.events[i]) {
			t.Fatalf("%s: event %d differs:\n got:  %+v\n want: %+v",
				label, i, got.events[i], want.events[i])
		}
		if !reflect.DeepEqual(got.reads[i], want.reads[i]) || !reflect.DeepEqual(got.writes[i], want.writes[i]) {
			t.Fatalf("%s: event %d's accesses differ:\n got:  reads %v writes %v\n want: reads %v writes %v",
				label, i, got.reads[i], got.writes[i], want.reads[i], want.writes[i])
		}
	}
	if !reflect.DeepEqual(got.crash, want.crash) {
		t.Fatalf("%s: crash differs: %v vs %v", label, got.crash, want.crash)
	}
	if !reflect.DeepEqual(got.output, want.output) && (len(got.output) != 0 || len(want.output) != 0) {
		t.Fatalf("%s: output differs: %v vs %v", label, got.output, want.output)
	}
}

// refCase is one program the reference comparison runs.
type refCase struct {
	name   string
	source string
	input  *interp.Input
}

// callBindSources bind call results to array elements and heap fields
// — the return step's store, whose index and object reads fire after
// the callee frame is popped. No corpus workload binds a call result
// anywhere but a scalar, so these programs pin that path: a local
// index, a computed index, an index that reads an array, a field of a
// local pointer, a field behind a field, and a pointer-valued result.
var callBindSources = []refCase{
	{name: "callbind-array", source: `
program callbindarr;
global int a[4];
global int b[4];
global int n;
lock L;
func next(int x) {
    return x * 2 + 1;
}
func worker(int k) {
    var int i;
    for i = 0 .. 3 {
        acquire(L);
        a[i] = next(k);
        n = n + 1;
        release(L);
        b[(i + k) % 4] = next(i);
        a[b[i] % 4] = next(a[i]);
    }
}
func main() {
    spawn worker(1);
    spawn worker(2);
    a[n % 4] = next(n);
}
`},
	{name: "callbind-field", source: `
program callbindfield;
global ptr head;
global int total;
func mk(int v) {
    return v + 10;
}
func alloc() {
    var ptr p;
    p = new(val, next);
    return p;
}
func worker(int k) {
    var ptr p;
    p = head;
    p.val = mk(k);
    p.next.val = mk(p.val);
    total = total + p.next.val;
}
func main() {
    head = alloc();
    head.next = alloc();
    spawn worker(1);
    spawn worker(2);
    head.val = mk(total);
}
`},
}

// callFaultSource faults while evaluating a call's argument, under
// every schedule: the faulting call's event must carry no call mark on
// either engine.
var callFaultSource = refCase{name: "callfault-args", source: `
program callfault;
global int a[2];
global int k;
func f(int x) {
    return x + 1;
}
func worker() {
    k = k + 1;
}
func main() {
    spawn worker();
    a[0] = f(k);
    a[1] = f(a[k + 2]);
}
`}

// fusedBranchSource branches on each of the six fused compare shapes
// (local or global on the left; local, constant or global on the
// right), each lowered to one compare-and-branch terminal, from three
// threads whose globals race, so random schedules take both outcomes.
var fusedBranchSource = refCase{name: "fused-branches", source: `
program fusedbr;
global int g;
global int h;
lock L;
func worker(int k) {
    var int i;
    var int j;
    var int lim;
    lim = 3;
    i = 0;
    while (i < lim) {
        acquire(L);
        if (g < i) {
            g = g + 1;
        }
        if (i >= h) {
            h = h + 1;
        }
        release(L);
        i = i + 1;
    }
    j = 0;
    while (j != 2) {
        j = j + 1;
        if (g == h) {
            g = g + k;
        }
    }
    if (g > 4) {
        h = 0;
    }
}
func main() {
    spawn worker(1);
    spawn worker(2);
    worker(3);
}
`}

// referenceCases lists the reference comparison's inputs: every
// registered workload, the call-result binding programs, a call that
// faults in its argument, a program with every fused compare-and-branch
// shape, and the generated programs of seeds 1–20, so
// machine-manufactured programs stay under a per-seed differential
// too.
func referenceCases() []refCase {
	var out []refCase
	for _, name := range workloads.Names() {
		w := workloads.ByName(name)
		out = append(out, refCase{name: name, source: w.Source, input: w.Input})
	}
	out = append(out, callBindSources...)
	out = append(out, callFaultSource, fusedBranchSource)
	for seed := int64(1); seed <= 20; seed++ {
		p := gen.Generate(seed)
		out = append(out, refCase{name: fmt.Sprintf("gen-seed-%d", seed), source: p.Source, input: p.Input})
	}
	return out
}

// TestEnginesAndNameMapExecutionAgree is the reference oracle: for
// every reference case, under the deterministic schedule and a spread
// of random interleavings, the bytecode dispatch loop and the name-map
// reference produce identical traces (events with reads/writes, branch
// outcomes and call marks), crashes and outputs. The reference shares
// nothing with the machine beyond the instruction stream, so agreement
// pins both layers of lowering (name→slot and tree→bytecode) at once.
func TestEnginesAndNameMapExecutionAgree(t *testing.T) {
	for _, rc := range referenceCases() {
		t.Run(rc.name, func(t *testing.T) {
			for _, instrument := range []bool{false, true} {
				prog, err := progcache.Shared().Get(rc.source, instrument)
				if err != nil {
					t.Fatalf("compile(instrument=%v): %v", instrument, err)
				}
				for si, schedule := range schedulesFor(t, prog, rc.input, 5) {
					label := fmt.Sprintf("instrument=%v schedule=%d (vs name-map ref)", instrument, si)
					compareRuns(t, label, runSlot(prog, rc.input, schedule), runReference(prog, rc.input, schedule))
				}
			}
		})
	}
}

// orderLog records a trace and, for each step, the reads, writes and
// branch outcome its hooks reported, in the order they fired.
type orderLog struct {
	*trace.Recorder
	calls [][]string
}

func (l *orderLog) BeforeInstr(t *interp.Thread, pc ir.PC) {
	l.calls = append(l.calls, nil)
	l.Recorder.BeforeInstr(t, pc)
}

func (l *orderLog) log(call string) {
	l.calls[len(l.calls)-1] = append(l.calls[len(l.calls)-1], call)
}

func (l *orderLog) OnRead(t *interp.Thread, v interp.VarID) {
	l.log(fmt.Sprintf("read %+v", v))
	l.Recorder.OnRead(t, v)
}

func (l *orderLog) OnWrite(t *interp.Thread, v interp.VarID) {
	l.log(fmt.Sprintf("write %+v", v))
	l.Recorder.OnWrite(t, v)
}

func (l *orderLog) OnBranch(t *interp.Thread, pc ir.PC, taken bool) {
	l.log(fmt.Sprintf("branch %v", taken))
	l.Recorder.OnBranch(t, pc, taken)
}

// TestFusedBranchesMatchNameMap runs the fused-branch program under the
// trace recorder on both engines, for the deterministic schedule and
// random ones, and checks that each of the six compare-and-branch
// terminals executes, that both engines record the same events and
// fire the same hooks in the same order at every step, and that a
// compare-and-branch reports its operand reads before its outcome.
func TestFusedBranchesMatchNameMap(t *testing.T) {
	prog := mustCompile(t, fusedBranchSource.source)
	executed := map[ir.BOp]bool{}
	for si, schedule := range schedulesFor(t, prog, nil, 8) {
		m := interp.New(prog, nil)
		got := &orderLog{Recorder: trace.NewRecorder()}
		m.Hooks = got
		sched.Run(m, sched.NewReplayer(schedule))
		ref := newRefMachine(prog, nil)
		want := &orderLog{Recorder: trace.NewRecorder()}
		ref.hooks = want
		ref.replay(schedule)

		if !reflect.DeepEqual(got.Events, want.Events) {
			t.Fatalf("schedule %d: events differ from the name-map reference", si)
		}
		if !reflect.DeepEqual(got.calls, want.calls) {
			t.Fatalf("schedule %d: hook order differs from the name-map reference", si)
		}
		for i, ev := range got.Events {
			code := prog.BC.Funcs[ev.PC.F]
			op := code.Code[code.Entry[ev.PC.I]].Op
			if op < ir.BEndBrLL || op > ir.BEndBrGG {
				continue
			}
			executed[op] = true
			calls := got.calls[i]
			reads, want := len(calls)-1, 2
			if op == ir.BEndBrLC || op == ir.BEndBrGC {
				want = 1 // the constant is not a read
			}
			if reads != want || !ev.IsBranch ||
				calls[reads] != fmt.Sprintf("branch %v", ev.Taken) {
				t.Fatalf("schedule %d step %d (%v): hooks %q, want %d operand reads, then the outcome", si, i, op, calls, want)
			}
			for _, c := range calls[:reads] {
				if !strings.HasPrefix(c, "read ") {
					t.Fatalf("schedule %d step %d (%v): hooks %q, want operand reads before the outcome", si, i, op, calls)
				}
			}
		}
	}
	for op := ir.BEndBrLL; op <= ir.BEndBrGG; op++ {
		if !executed[op] {
			t.Errorf("%v never executed", op)
		}
	}
}

// heapCase is one program of the heap-field comparison. dangle names a
// pointer global that both engines seed, before the run, with a
// pointer to object 5, which the program never allocates: no program
// can forge such a pointer. crash is the run's expected crash reason,
// "" when it finishes.
type heapCase struct {
	refCase
	dangle string
	crash  string
}

// heapCases pin the heap's field semantics, which no workload
// exercises: a store to a field the object's `new` did not list adds
// it to that object alone, also when two objects of one `new` (whose
// list names a field twice) each add a different field, a read of a
// field the object has neither listed nor stored crashes, null and
// dangling dereferences crash, on a load and on a store, and an object
// as wide as lang.MaxFieldNames allows behaves like a narrow one.
var heapCases = append([]heapCase{
	{refCase: refCase{name: "heap-grow", source: `
program heapgrow;
global ptr p;
global ptr q;
global ptr r;
global int got;
func mk() {
    return new(b, a, b);
}
func main() {
    p = new(a, b);
    q = mk();
    r = mk();
    p.c = 7;
    p.a = p.c + 1;
    q.b = 2;
    got = p.c + p.a + q.b;
    p.c = got;
    q.d = p.c;
    r.e = 5;
    got = q.d + r.e;
}
`}},
	{refCase: refCase{name: "heap-nofield", source: `
program heapnofield;
global ptr p;
global ptr q;
global int got;
func main() {
    p = new(a, b);
    q = new(a, b);
    p.c = 1;
    got = p.c;
    got = q.c;
}
`}, crash: `object has no field "c"`},
	{refCase: refCase{name: "heap-null-load", source: `
program heapnullload;
global ptr p;
global int got;
func main() {
    got = 1;
    got = p.a;
}
`}, crash: "null pointer dereference"},
	{refCase: refCase{name: "heap-null-store", source: `
program heapnullstore;
global ptr p;
func main() {
    p = new(a);
    p.a = 1;
    p = null;
    p.a = 2;
}
`}, crash: "null pointer dereference"},
	{refCase: refCase{name: "heap-dangling-load", source: `
program heapdanglingload;
global ptr p;
global ptr q;
global int got;
func main() {
    q = new(a);
    got = q.a;
    got = p.a;
}
`}, dangle: "p", crash: "dangling pointer obj#5"},
	{refCase: refCase{name: "heap-dangling-store", source: `
program heapdanglingstore;
global ptr p;
global ptr q;
func main() {
    q = new(a);
    q.a = 1;
    p.a = 2;
}
`}, dangle: "p", crash: "dangling pointer obj#5"},
}, wideHeapCase())

// wideHeapCase builds heap-wide: one `new` site, run twice, lists
// every field name but one twice over (f1, f0, f2, f1, ...), and its
// objects store to the first, a middle and the last field, add the
// one unlisted name, and read them all back.
func wideHeapCase() heapCase {
	n := lang.MaxFieldNames - 1
	var list []string
	for i := 1; i < n; i++ {
		list = append(list, fmt.Sprintf("f%d", i), fmt.Sprintf("f%d", i-1))
	}
	last := fmt.Sprintf("f%d", n-1)
	src := fmt.Sprintf(`
program heapwide;
global ptr p;
global ptr q;
global int got;
func mk() {
    return new(%s);
}
func main() {
    p = mk();
    q = mk();
    p.%s = 3;
    p.f0 = p.%s + 1;
    q.f%d = p.f0;
    q.extra = 9;
    got = p.f0 + p.%s + q.f%d + q.extra + q.f0;
}
`, strings.Join(list, ", "), last, last, n/2, last, n/2)
	return heapCase{refCase: refCase{name: "heap-wide", source: src}}
}

// TestHeapFieldsMatchNameMap runs each heap case on the machine and on
// the name-map reference, whose heap is a map of field-name maps, and
// requires the same trace, accesses, crash and output, the expected
// crash, and a captured heap equal to the reference's, so a field a
// store added shows in the dump under its name.
func TestHeapFieldsMatchNameMap(t *testing.T) {
	for _, hc := range heapCases {
		t.Run(hc.name, func(t *testing.T) {
			for _, instrument := range []bool{false, true} {
				prog, err := progcache.Shared().Get(hc.source, instrument)
				if err != nil {
					t.Fatalf("compile(instrument=%v): %v", instrument, err)
				}
				// Run once and rewind, so the measured run reuses the
				// heap slots, grown ones included.
				m := interp.New(prog, hc.input)
				sched.Run(m, sched.NewCooperative())
				m.Reset(prog, hc.input)
				ref := newRefMachine(prog, hc.input)
				if hc.dangle != "" {
					m.Globals[prog.GlobalSlot(hc.dangle)] = interp.PtrVal(5)
					ref.globals[hc.dangle] = interp.PtrVal(5)
				}
				got, schedule := recordSlot(m, sched.NewCooperative())
				label := fmt.Sprintf("instrument=%v", instrument)
				compareRuns(t, label, got, replayReference(ref, schedule))
				switch {
				case hc.crash == "" && m.Crash != nil:
					t.Fatalf("%s: crashed: %v", label, m.Crash)
				case hc.crash != "" && (m.Crash == nil || m.Crash.Reason != hc.crash):
					t.Fatalf("%s: crash %v, want %q", label, m.Crash, hc.crash)
				}
				d := coredump.Capture(m, 0, ir.PC{}, "heap")
				if !reflect.DeepEqual(d.Heap, ref.heap) {
					t.Fatalf("%s: captured heap %v, name-map heap %v", label, d.Heap, ref.heap)
				}
			}
		})
	}
}

// TestCaptureNamesGrownFields: heap-grow's objects gain c, d and e,
// each by a store; the dump names them, and no object shows another's.
func TestCaptureNamesGrownFields(t *testing.T) {
	prog, err := progcache.Shared().Get(heapCases[0].source, false)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog, nil)
	if res := sched.Run(m, sched.NewCooperative()); res.Outcome() != sched.OutcomeDone {
		t.Fatalf("outcome %v: %v", res.Outcome(), res.Crash)
	}
	want := map[interp.ObjID]map[string]interp.Value{
		1: {"a": interp.IntVal(8), "b": interp.IntVal(0), "c": interp.IntVal(17)},
		2: {"a": interp.IntVal(0), "b": interp.IntVal(2), "d": interp.IntVal(17)},
		3: {"a": interp.IntVal(0), "b": interp.IntVal(0), "e": interp.IntVal(5)},
	}
	if d := coredump.Capture(m, 0, ir.PC{}, "heap"); !reflect.DeepEqual(d.Heap, want) {
		t.Fatalf("captured heap %v, want %v", d.Heap, want)
	}
}
