// Package trace records execution traces of deterministic re-runs:
// one event per instruction with the variables it read and wrote and,
// for branches, the outcome. Traces feed the dynamic slicer and the
// preemption-candidate discovery of the schedule search.
//
// The paper collects traces under Valgrind for a bounded window of
// instructions; Recorder supports the same windowing.
package trace

import (
	"heisendump/internal/interp"
	"heisendump/internal/ir"
)

// Event is one executed instruction.
type Event struct {
	// Step is the 0-based global step number of the run.
	Step int64
	// Thread is the executing thread.
	Thread int
	// PC is the instruction executed.
	PC ir.PC
	// Op is the instruction's opcode.
	Op ir.Op
	// Synth marks instrumentation-inserted instructions.
	Synth bool
	// IsBranch and Taken record branch outcomes.
	IsBranch bool
	Taken    bool
	// Reads and Writes are the variables touched during the step.
	Reads  []interp.VarID
	Writes []interp.VarID
	// Lock is set on successful acquire and on release steps (an
	// OpAcquire event with an empty Lock is a blocked attempt).
	Lock string
}

// Recorder is an interp.Hooks implementation that collects events.
type Recorder struct {
	// Events holds the retained trace, oldest first.
	Events []Event
	// Window bounds the retained trace length; 0 keeps everything.
	// When the bound is hit the oldest half is discarded, mirroring the
	// paper's bounded trace window (their experiments retained a 20M
	// instruction window and found it sufficient).
	Window int
	// Dropped counts discarded events.
	Dropped int64

	step int64
	cur  int // index of the current event, -1 when none
}

// NewRecorder returns an unbounded recorder.
func NewRecorder() *Recorder { return &Recorder{cur: -1} }

// NewWindowed returns a recorder retaining at most window events.
func NewWindowed(window int) *Recorder { return &Recorder{Window: window, cur: -1} }

var (
	_ interp.Hooks     = (*Recorder)(nil)
	_ interp.LockHooks = (*Recorder)(nil)
)

// BeforeInstr opens a new event.
func (r *Recorder) BeforeInstr(t *interp.Thread, pc ir.PC, in *ir.Instr) {
	if r.Window > 0 && len(r.Events) >= r.Window {
		half := len(r.Events) / 2
		r.Dropped += int64(half)
		r.Events = append(r.Events[:0], r.Events[half:]...)
	}
	r.Events = append(r.Events, Event{
		Step:   r.step,
		Thread: t.ID,
		PC:     pc,
		Op:     in.Op,
		Synth:  in.Synth,
	})
	r.cur = len(r.Events) - 1
	r.step++
}

// OnBranch records the branch outcome on the current event.
func (r *Recorder) OnBranch(t *interp.Thread, pc ir.PC, taken bool) {
	if r.cur >= 0 {
		r.Events[r.cur].IsBranch = true
		r.Events[r.cur].Taken = taken
	}
}

// OnEnterFunc is a no-op; call structure is recoverable from events.
func (r *Recorder) OnEnterFunc(t *interp.Thread, fidx int) {}

// OnExitFunc is a no-op.
func (r *Recorder) OnExitFunc(t *interp.Thread, fidx int) {}

// OnRead records a variable read on the current event.
func (r *Recorder) OnRead(t *interp.Thread, v interp.VarID) {
	if r.cur >= 0 {
		r.Events[r.cur].Reads = append(r.Events[r.cur].Reads, v)
	}
}

// OnWrite records a variable write on the current event.
func (r *Recorder) OnWrite(t *interp.Thread, v interp.VarID) {
	if r.cur >= 0 {
		r.Events[r.cur].Writes = append(r.Events[r.cur].Writes, v)
	}
}

// OnAcquire records the successful acquisition on the current event.
func (r *Recorder) OnAcquire(t *interp.Thread, lock string) {
	if r.cur >= 0 {
		r.Events[r.cur].Lock = lock
	}
}

// OnRelease records the release on the current event.
func (r *Recorder) OnRelease(t *interp.Thread, lock string) {
	if r.cur >= 0 {
		r.Events[r.cur].Lock = lock
	}
}

// EventAt returns the event with the given step number, or nil when it
// fell outside the retained window.
func (r *Recorder) EventAt(step int64) *Event {
	if len(r.Events) == 0 {
		return nil
	}
	first := r.Events[0].Step
	i := step - first
	if i < 0 || i >= int64(len(r.Events)) {
		return nil
	}
	return &r.Events[i]
}

// Multi fans hook events out to several hook implementations, letting
// a single re-execution drive the aligner, the tracker and the
// recorder at once.
type Multi []interp.Hooks

var (
	_ interp.Hooks     = (Multi)(nil)
	_ interp.LockHooks = (Multi)(nil)
)

// BeforeInstr implements interp.Hooks.
func (m Multi) BeforeInstr(t *interp.Thread, pc ir.PC, in *ir.Instr) {
	for _, h := range m {
		h.BeforeInstr(t, pc, in)
	}
}

// OnBranch implements interp.Hooks.
func (m Multi) OnBranch(t *interp.Thread, pc ir.PC, taken bool) {
	for _, h := range m {
		h.OnBranch(t, pc, taken)
	}
}

// OnEnterFunc implements interp.Hooks.
func (m Multi) OnEnterFunc(t *interp.Thread, fidx int) {
	for _, h := range m {
		h.OnEnterFunc(t, fidx)
	}
}

// OnExitFunc implements interp.Hooks.
func (m Multi) OnExitFunc(t *interp.Thread, fidx int) {
	for _, h := range m {
		h.OnExitFunc(t, fidx)
	}
}

// OnRead implements interp.Hooks.
func (m Multi) OnRead(t *interp.Thread, v interp.VarID) {
	for _, h := range m {
		h.OnRead(t, v)
	}
}

// OnWrite implements interp.Hooks.
func (m Multi) OnWrite(t *interp.Thread, v interp.VarID) {
	for _, h := range m {
		h.OnWrite(t, v)
	}
}

// OnAcquire implements interp.LockHooks, forwarding to the members
// that observe lock events.
func (m Multi) OnAcquire(t *interp.Thread, lock string) {
	for _, h := range m {
		if lh, ok := h.(interp.LockHooks); ok {
			lh.OnAcquire(t, lock)
		}
	}
}

// OnRelease implements interp.LockHooks.
func (m Multi) OnRelease(t *interp.Thread, lock string) {
	for _, h := range m {
		if lh, ok := h.(interp.LockHooks); ok {
			lh.OnRelease(t, lock)
		}
	}
}
