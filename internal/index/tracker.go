package index

import (
	"heisendump/internal/ctrldep"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
)

// Tracker maintains the current execution index of every thread online
// via the instrumentation rules of the paper's Fig. 4:
//
//	(1) entering a procedure pushes its entry,
//	(2) exiting a procedure pops it (with any still-open branch
//	    regions above it),
//	(3) a predicate with outcome b pushes the entry p_b,
//	(4) before executing a statement that is the immediate
//	    post-dominator of the top entry's predicate, the top entry is
//	    popped (repeatedly).
//
// Maintaining indices online is what the paper's measurements found too
// expensive for production (42% overhead in the optimized PLDI'08
// implementation); here the tracker serves the debugging phase and the
// test suite, which cross-checks reverse-engineered indices against it.
type Tracker struct {
	prog   *ir.Program
	pdeps  *ctrldep.ProgramDeps
	stacks map[int][]Entry
}

// NewTracker returns a tracker for prog using the program's control
// dependence (and post-dominator) analysis.
func NewTracker(prog *ir.Program, pdeps *ctrldep.ProgramDeps) *Tracker {
	return &Tracker{prog: prog, pdeps: pdeps, stacks: map[int][]Entry{}}
}

var _ interp.Hooks = (*Tracker)(nil)

// BeforeInstr applies rule (4).
func (tr *Tracker) BeforeInstr(t *interp.Thread, pc ir.PC) {
	st := tr.stacks[t.ID]
	pd := tr.pdeps.Funcs[pc.F].PD
	for len(st) > 0 {
		top := st[len(st)-1]
		if top.Kind != KBranch || top.Func != pc.F {
			break
		}
		if pd.Ipdom(top.PC) != pc.I {
			break
		}
		st = st[:len(st)-1]
	}
	tr.stacks[t.ID] = st
}

// OnBranch applies rule (3).
func (tr *Tracker) OnBranch(t *interp.Thread, pc ir.PC, taken bool) {
	tr.stacks[t.ID] = append(tr.stacks[t.ID],
		Entry{Kind: KBranch, Func: pc.F, PC: pc.I, Taken: taken})
}

// OnEnterFunc applies rule (1).
func (tr *Tracker) OnEnterFunc(t *interp.Thread, fidx int) {
	tr.stacks[t.ID] = append(tr.stacks[t.ID], Entry{Kind: KFunc, Func: fidx})
}

// OnExitFunc applies rule (2), closing any branch regions still open
// in the exiting activation.
func (tr *Tracker) OnExitFunc(t *interp.Thread, fidx int) {
	st := tr.stacks[t.ID]
	for len(st) > 0 {
		top := st[len(st)-1]
		st = st[:len(st)-1]
		if top.Kind == KFunc && top.Func == fidx {
			break
		}
	}
	tr.stacks[t.ID] = st
}

// OnRead is a no-op; the tracker only observes control flow.
func (tr *Tracker) OnRead(t *interp.Thread, v interp.VarID) {}

// OnWrite is a no-op.
func (tr *Tracker) OnWrite(t *interp.Thread, v interp.VarID) {}

// Current returns a copy of thread's current index with the given
// leaf point.
func (tr *Tracker) Current(thread int, leaf ir.PC) *Index {
	st := tr.stacks[thread]
	return &Index{
		Thread:  thread,
		Entries: append([]Entry(nil), st...),
		Leaf:    leaf,
	}
}

// CurrentCanonical returns the thread's current index in canonical
// (aggregated) form, directly comparable with reverse-engineered
// indices.
func (tr *Tracker) CurrentCanonical(thread int, leaf ir.PC) *Index {
	raw := tr.Current(thread, leaf)
	raw.Entries = Canonicalize(tr.prog, tr.pdeps, raw.Entries)
	return raw
}
