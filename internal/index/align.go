package index

import (
	"heisendump/internal/ctrldep"
	"heisendump/internal/ir"
	"heisendump/internal/trace"
)

// AlignKind classifies an alignment result.
type AlignKind int

const (
	// AlignNone means no alignment was reached before the run ended.
	AlignNone AlignKind = iota
	// AlignExact means the failure point itself was reached (Fig. 7
	// rule 7).
	AlignExact
	// AlignClosest means the runs diverged at a predicate and the
	// divergence point is the closest alignment (Fig. 7 rule 6,
	// conditions 2 and 3).
	AlignClosest
)

func (k AlignKind) String() string {
	switch k {
	case AlignExact:
		return "exact"
	case AlignClosest:
		return "closest"
	}
	return "none"
}

// Alignment is the aligned point found in a passing run.
type Alignment struct {
	// Kind classifies the alignment.
	Kind AlignKind
	// Steps is the number of completed steps after which the run's
	// state matches the aligned point, so the pipeline can re-execute
	// deterministically to it and capture a dump there. For an exact
	// alignment that is the state just before the failure instruction
	// executes; for a closest one, just after the divergent branch.
	Steps int64
	// PC is the aligned instruction: the failure PC for exact
	// alignments, the divergent predicate for closest alignments.
	PC ir.PC
}

// Align locates the aligned point of a reverse-engineered failure
// index in a recorded deterministic re-run of prog, per the paper's
// Fig. 7 instrumentation rules applied to the failing thread's
// replayed events:
//
//	(5) entering a procedure matching the head entry removes it,
//	(6) a predicate matching the head entry's predicate removes it
//	    when the outcome matches; when the outcome differs — or the
//	    head entry is transitively control dependent on the branch not
//	    taken — the run has diverged and the current point is the
//	    CLOSEST alignment,
//	(7) once every region entry is matched, executing the failure PC
//	    is the EXACT alignment.
//
// events must be the run's whole trace, as trace.Recorder records it.
// A run that reaches neither alignment returns Kind AlignNone.
func Align(prog *ir.Program, pdeps *ctrldep.ProgramDeps, target *Index, events []trace.Event) Alignment {
	a := aligner{prog: prog, pdeps: pdeps, target: target}
	trace.Replay(prog, events, func(thread, fidx int) {
		if thread == target.Thread {
			a.enter(fidx)
		}
	}, func(e *trace.Event) {
		if e.Thread != target.Thread {
			return
		}
		a.step(e)
		if e.IsBranch {
			a.branch(e)
		}
	})
	return a.Alignment
}

// aligner carries Align's progress through the target index.
type aligner struct {
	prog   *ir.Program
	pdeps  *ctrldep.ProgramDeps
	target *Index
	pos    int // entries matched so far
	Alignment
}

func (a *aligner) done() bool { return a.Kind != AlignNone }

func (a *aligner) head() (Entry, bool) {
	if a.pos < len(a.target.Entries) {
		return a.target.Entries[a.pos], true
	}
	return Entry{}, false
}

// step implements rule 7 before the event's instruction executes.
func (a *aligner) step(e *trace.Event) {
	if !a.done() && a.pos == len(a.target.Entries) && e.PC == a.target.Leaf {
		a.Alignment = Alignment{Kind: AlignExact, Steps: e.Step, PC: e.PC}
	}
}

// branch implements rule 6, in the canonical (aggregated) predicate
// space: branches of multi-branch groups match through their group's
// decided outcome.
func (a *aligner) branch(e *trace.Event) {
	if a.done() {
		return
	}
	h, ok := a.head()
	if !ok {
		return
	}
	pc, taken := e.PC, e.Taken
	fn := a.prog.Funcs[pc.F]
	in := &fn.Instrs[pc.I]
	fd := a.pdeps.Funcs[pc.F]

	// Resolve the event in canonical space.
	var (
		agg     bool
		group   int
		outcome bool
		decided = true
	)
	if in.PredGroup >= 0 && groupSize(fn, in.PredGroup) >= 2 {
		agg = true
		group = in.PredGroup
		outcome, decided = fd.GroupOutcome(ctrldep.Dep{Pred: pc.I, Taken: taken})
		if !decided {
			return // chain continues; no region decision yet
		}
	} else {
		outcome = taken
	}

	// Rule 6, condition 1: matching region entered.
	switch {
	case !agg && h.Kind == KBranch && h.Func == pc.F && h.PC == pc.I && h.Taken == outcome:
		a.pos++
		return
	case agg && h.Kind == KAgg && h.Func == pc.F && h.Group == group && h.Taken == outcome:
		a.pos++
		return
	}

	// Rule 6, condition 2: same predicate, opposite outcome.
	oppositeSamePred := (!agg && h.Kind == KBranch && h.Func == pc.F && h.PC == pc.I && h.Taken != outcome) ||
		(agg && h.Kind == KAgg && h.Func == pc.F && h.Group == group && h.Taken != outcome)

	// Rule 6, condition 3: the head entry is transitively control
	// dependent on the branch not taken, so it can no longer execute.
	dependsOnOpposite := false
	if !oppositeSamePred && h.Func == pc.F {
		headPred := -1
		switch h.Kind {
		case KBranch:
			headPred = h.PC
		case KAgg:
			headPred = groupHead(fn, h.Group)
		}
		if headPred >= 0 {
			dependsOnOpposite = fd.DependsOn(headPred, pc.I, !taken)
		}
	}

	if oppositeSamePred || dependsOnOpposite {
		// The branch has executed.
		a.Alignment = Alignment{Kind: AlignClosest, Steps: e.Step + 1, PC: pc}
	}
}

// enter implements rule 5.
func (a *aligner) enter(fidx int) {
	if a.done() {
		return
	}
	if h, ok := a.head(); ok && h.Kind == KFunc && h.Func == fidx {
		a.pos++
	}
}
