// Package trace records execution traces of deterministic re-runs:
// one event per instruction, the variables it read and wrote, the
// outcome of a branch and whether a call entered its callee. The
// alignment re-run records one trace, and once the run ends the
// aligners, the dynamic slicer and the preemption-candidate discovery
// of the schedule search all read it. Replay walks a recorded trace in
// the order in which the live hooks fired.
//
// A trace is dense: each distinct variable is interned once into
// Recorder.Vars, in the order the run first touched it, and an event
// holds where its reads and writes start in two id arrays. Events hold
// no pointer, so the garbage collector never scans them.
package trace

import (
	"fmt"
	"math"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
)

// Event is one executed instruction.
type Event struct {
	// Step is the 0-based global step number of the run, which is also
	// the event's index in the recorded trace.
	Step int64
	// Thread is the executing thread.
	Thread int
	// PC is the instruction executed.
	PC ir.PC
	// IsBranch and Taken record branch outcomes.
	IsBranch bool
	Taken    bool
	// Call marks a call whose step entered its callee. A call that
	// faults while evaluating its arguments enters nothing.
	Call bool

	// reads and writes are where the event's variable ids start in the
	// recorder's read and write id arrays; the next event's starts, or
	// the arrays' ends, end them.
	reads, writes int32
}

// traceStart is the capacity, in events and in ids of each kind, that
// a recorder starts with: the alignment re-runs of the Table 2 bugs
// and of generated programs take a few hundred steps (127-519 for the
// bugs and generated seeds 1-10). Longer traces grow geometrically, by
// append.
const traceStart = 512

// Recorder is an interp.Hooks implementation that collects a trace.
// Use NewRecorder; the zero value is not ready.
type Recorder struct {
	// Events holds the trace, oldest first.
	Events []Event
	// Vars holds each variable the run read or wrote, once, in the order
	// of its first access; a variable's index here is its id.
	Vars []interp.VarID

	// ids interns variables, one table per interp.VarKind.
	ids      [4]idTable
	readIDs  []int32
	writeIDs []int32
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		Events:   make([]Event, 0, traceStart),
		readIDs:  make([]int32, 0, traceStart),
		writeIDs: make([]int32, 0, traceStart),
	}
}

var _ interp.Hooks = (*Recorder)(nil)

// ID returns the id of v, and whether the run read or wrote v at all.
func (r *Recorder) ID(v interp.VarID) (int32, bool) {
	owner, k, ok := tableKey(v)
	if !ok {
		return 0, false
	}
	id := r.ids[v.Kind].get(owner, k)
	return id - 1, id != 0
}

// Reads returns the ids of the variables event i read, in the order of
// the reads. The slice aliases the recorder's storage.
func (r *Recorder) Reads(i int) []int32 {
	end := len(r.readIDs)
	if i+1 < len(r.Events) {
		end = int(r.Events[i+1].reads)
	}
	return r.readIDs[r.Events[i].reads:end]
}

// Writes returns the ids of the variables event i wrote, in the order
// of the writes. The slice aliases the recorder's storage.
func (r *Recorder) Writes(i int) []int32 {
	end := len(r.writeIDs)
	if i+1 < len(r.Events) {
		end = int(r.Events[i+1].writes)
	}
	return r.writeIDs[r.Events[i].writes:end]
}

// intern returns v's id, assigning the next one on first sight.
func (r *Recorder) intern(v interp.VarID) int32 {
	owner, k, ok := tableKey(v)
	if !ok {
		panic(fmt.Sprintf("trace: variable identity %+v out of range", v))
	}
	e := r.ids[v.Kind].at(owner, k)
	if *e == 0 {
		r.Vars = append(r.Vars, v)
		*e = int32(len(r.Vars))
	}
	return *e - 1
}

// tableKey places v in its kind's intern table: a global is key Slot
// of owner 0, an array element key Idx of its array's slot, and a local
// or a field key Slot (the local slot or the field-name id) of its
// frame or object. Frame and object ids are dense per run. ok is false
// for an identity no run reports.
func tableKey(v interp.VarID) (owner, k int, ok bool) {
	if v.Slot < 0 || v.Idx < 0 || v.Idx > math.MaxInt32 {
		return 0, 0, false
	}
	switch v.Kind {
	case interp.VGlobal:
		return 0, int(v.Slot), true
	case interp.VArrayElem:
		return int(v.Slot), int(v.Idx), true
	case interp.VLocal, interp.VField:
		return int(v.Idx), int(v.Slot), true
	}
	return 0, 0, false
}

// idTable maps (owner, key) pairs of small non-negative ints to ids
// plus one (0: not seen yet). Each owner's keys sit in one segment of
// ids, regrown by doubling when a larger key arrives, so the table
// holds the keys a run touches rather than every declared element.
type idTable struct {
	segs []segment // by owner
	ids  []int32
}

// segment is where an owner's entries start in idTable.ids, and how
// many keys they cover.
type segment struct{ off, n int32 }

// get returns the entry of (owner, k), or 0.
func (t *idTable) get(owner, k int) int32 {
	if owner >= len(t.segs) || k >= int(t.segs[owner].n) {
		return 0
	}
	return t.ids[int(t.segs[owner].off)+k]
}

// at returns the entry of (owner, k), making room for it.
func (t *idTable) at(owner, k int) *int32 {
	if owner >= len(t.segs) {
		t.segs = append(t.segs, make([]segment, owner+1-len(t.segs))...)
	}
	s := &t.segs[owner]
	if k >= int(s.n) {
		n := max(k+1, 2*int(s.n), 4)
		off := len(t.ids)
		t.ids = append(t.ids, make([]int32, n)...)
		copy(t.ids[off:], t.ids[s.off:s.off+s.n])
		s.off, s.n = int32(off), int32(n)
	}
	return &t.ids[int(s.off)+k]
}

// cur returns the event of the step in progress.
func (r *Recorder) cur() *Event { return &r.Events[len(r.Events)-1] }

// BeforeInstr opens a new event.
func (r *Recorder) BeforeInstr(t *interp.Thread, pc ir.PC) {
	r.Events = append(r.Events, Event{Step: int64(len(r.Events)), Thread: t.ID, PC: pc,
		reads: int32(len(r.readIDs)), writes: int32(len(r.writeIDs))})
}

// OnBranch records the branch outcome on the current event.
func (r *Recorder) OnBranch(t *interp.Thread, pc ir.PC, taken bool) {
	e := r.cur()
	e.IsBranch = true
	e.Taken = taken
}

// OnEnterFunc marks the current event as a call that entered its
// callee. A thread enters its entry function before its first event
// opens (t.Steps is still 0); that entry marks nothing, and Replay
// restores it from the thread's first event.
func (r *Recorder) OnEnterFunc(t *interp.Thread, fidx int) {
	if t.Steps > 0 {
		r.cur().Call = true
	}
}

// OnExitFunc is a no-op.
func (r *Recorder) OnExitFunc(t *interp.Thread, fidx int) {}

// OnRead records a variable read on the current event.
func (r *Recorder) OnRead(t *interp.Thread, v interp.VarID) {
	r.readIDs = append(r.readIDs, r.intern(v))
}

// OnWrite records a variable write on the current event.
func (r *Recorder) OnWrite(t *interp.Thread, v interp.VarID) {
	r.writeIDs = append(r.writeIDs, r.intern(v))
}

// Replay walks a trace recorded from a run of prog and reports it in
// the order in which the run's hooks fired: enter(thread, fidx) with a
// thread's entry function just before the thread's first event,
// step(e) for each event (a branch's outcome is on the event), and
// enter(thread, callee) right after each event whose call entered its
// callee.
func Replay(prog *ir.Program, events []Event, enter func(thread, fidx int), step func(e *Event)) {
	var started []bool
	for i := range events {
		e := &events[i]
		for len(started) <= e.Thread {
			started = append(started, false)
		}
		if !started[e.Thread] {
			started[e.Thread] = true
			enter(e.Thread, e.PC.F)
		}
		step(e)
		if e.Call {
			enter(e.Thread, int(prog.InstrAt(e.PC).Callee))
		}
	}
}
