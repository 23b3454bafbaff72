// Package trace records execution traces of deterministic re-runs:
// one event per instruction with the variables it read and wrote, the
// outcome of a branch and whether a call entered its callee. The
// alignment re-run records one trace, and once the run ends the
// aligners, the dynamic slicer and the preemption-candidate discovery
// of the schedule search all read it. Replay walks a recorded trace in
// the order in which the live hooks fired.
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
	// Reads and Writes are the variables touched during the step.
	Reads  []interp.VarID
	Writes []interp.VarID
}

// Recorder is an interp.Hooks implementation that collects events.
type Recorder struct {
	// Events holds the trace, oldest first.
	Events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

var _ interp.Hooks = (*Recorder)(nil)

// cur returns the event of the step in progress.
func (r *Recorder) cur() *Event { return &r.Events[len(r.Events)-1] }

// BeforeInstr opens a new event.
func (r *Recorder) BeforeInstr(t *interp.Thread, pc ir.PC) {
	r.Events = append(r.Events, Event{Step: int64(len(r.Events)), Thread: t.ID, PC: pc})
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
	e := r.cur()
	e.Reads = append(e.Reads, v)
}

// OnWrite records a variable write on the current event.
func (r *Recorder) OnWrite(t *interp.Thread, v interp.VarID) {
	e := r.cur()
	e.Writes = append(e.Writes, v)
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
