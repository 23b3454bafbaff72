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

	ids      map[interp.VarID]int32
	readIDs  []int32
	writeIDs []int32
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		Events:   make([]Event, 0, traceStart),
		ids:      map[interp.VarID]int32{},
		readIDs:  make([]int32, 0, traceStart),
		writeIDs: make([]int32, 0, traceStart),
	}
}

var _ interp.Hooks = (*Recorder)(nil)

// ID returns the id of v, and whether the run read or wrote v at all.
func (r *Recorder) ID(v interp.VarID) (int32, bool) {
	id, ok := r.ids[v]
	return id, ok
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
	id, ok := r.ids[v]
	if !ok {
		id = int32(len(r.Vars))
		r.ids[v] = id
		r.Vars = append(r.Vars, v)
	}
	return id
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
