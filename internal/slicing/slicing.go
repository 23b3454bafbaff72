// Package slicing implements backward dynamic slicing over recorded
// traces (Korel & Laski; the trace-based algorithms of Zhang, Gupta &
// Zhang). The pipeline slices from the aligned point's variables to
// rank critical-shared-variable accesses by dependence distance — the
// paper's second prioritization heuristic (§4).
//
// Both passes read a trace.Recorder's dense form: per-variable tables
// (write sites, CSV membership) are slices indexed by the recorder's
// variable ids, and a slice's distances are indexed by step.
package slicing

import (
	"cmp"
	"slices"

	"heisendump/internal/ctrldep"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/trace"
)

// Slice is the result of one backward dynamic slice: for each trace
// step in the slice, its dependence distance (number of dependence
// edges) from the criterion.
type Slice struct {
	// CriterionStep is the step the slice started from.
	CriterionStep int64

	// depth holds, indexed by step, each step's distance plus one; 0
	// marks a step outside the slice. Only steps up to the criterion
	// can be in it.
	depth []int32
}

// Distance returns step's dependence distance from the criterion, and
// whether step is in the slice at all.
func (s *Slice) Distance(step int64) (int, bool) {
	if step < 0 || step >= int64(len(s.depth)) || s.depth[step] == 0 {
		return 0, false
	}
	return int(s.depth[step]) - 1, true
}

// InSlice reports whether step is in the slice.
func (s *Slice) InSlice(step int64) bool {
	_, ok := s.Distance(step)
	return ok
}

// Compute slices backward from the event at criterionStep through data
// dependences (each read reaches the latest earlier write of the same
// location) and dynamic control dependences (each event reaches the
// latest earlier execution, in its thread, of one of its static
// control-dependence predicates). The criterion is the event's own
// reads: the divergence-predicate variables for closest alignments,
// the crash-triggering variables for exact alignments. rec holds a
// whole recorded run, so an event's Step is its index.
func Compute(prog *ir.Program, pdeps *ctrldep.ProgramDeps, rec *trace.Recorder, criterionStep int64) *Slice {
	events := rec.Events
	sl := &Slice{CriterionStep: criterionStep}
	if criterionStep < 0 || criterionStep >= int64(len(events)) {
		return sl
	}
	n := int(criterionStep) + 1 // no later event can be in the slice

	// Write sites per variable id, ordered by step, in one array:
	// variable v's are sites[start[v]:start[v+1]]. Branch sites per
	// (thread, pc), also ordered by step. Both serve latest-before
	// lookups.
	start := make([]int32, len(rec.Vars)+1)
	for i := range n {
		for _, v := range rec.Writes(i) {
			start[v+1]++
		}
	}
	for v := range rec.Vars {
		start[v+1] += start[v]
	}
	sites := make([]int64, start[len(rec.Vars)])
	fill := make([]int32, len(rec.Vars))
	branches := map[branchKey][]int64{}
	for i := range n {
		for _, v := range rec.Writes(i) {
			sites[start[v]+fill[v]] = int64(i)
			fill[v]++
		}
		if e := &events[i]; e.IsBranch {
			k := branchKey{thread: e.Thread, pc: e.PC}
			branches[k] = append(branches[k], e.Step)
		}
	}

	sl.depth = make([]int32, n)
	var queue []int64
	// visit adds step to the slice at distance dist, once.
	visit := func(step int64, dist int32) {
		if sl.depth[step] == 0 {
			sl.depth[step] = dist + 1
			queue = append(queue, step)
		}
	}
	visit(criterionStep, 0)
	for head := 0; head < len(queue); head++ {
		e := &events[queue[head]]
		dist := sl.depth[e.Step] // e's distance plus one: its dependences'
		for _, v := range rec.Reads(int(e.Step)) {
			if d, ok := lastBefore(sites[start[v]:start[v+1]], e.Step); ok {
				visit(d, dist)
			}
		}
		// Dynamic control dependence: the latest earlier execution of a
		// static control-dependence predicate in the same thread.
		for _, dep := range pdeps.Funcs[e.PC.F].Deps[e.PC.I] {
			if dep.Pred == e.PC.I {
				continue // a loop head on itself
			}
			k := branchKey{thread: e.Thread, pc: ir.PC{F: e.PC.F, I: dep.Pred}}
			if d, ok := lastBefore(branches[k], e.Step); ok {
				visit(d, dist)
			}
		}
	}
	return sl
}

type branchKey struct {
	thread int
	pc     ir.PC
}

// lastBefore returns the largest element of steps strictly below
// bound.
func lastBefore(steps []int64, bound int64) (int64, bool) {
	i, _ := slices.BinarySearch(steps, bound)
	if i == 0 {
		return 0, false
	}
	return steps[i-1], true
}

// Access is one critical-shared-variable access in the passing run.
type Access struct {
	Step    int64
	Thread  int
	PC      ir.PC
	Var     interp.VarID
	IsWrite bool
	// Priority ranks the access: 1 is most critical. The bottom
	// priority (accesses outside the slice under the dependence
	// heuristic) is PriorityBottom.
	Priority int
	// CSV is the index of Var in the CSV list the access was collected
	// for (the analysis's CSVs, in order).
	CSV int
}

// PriorityBottom is the ⊥ priority of accesses deemed irrelevant.
const PriorityBottom = 1 << 30

// Heuristic selects the CSV-access prioritization strategy.
type Heuristic int

const (
	// Temporal ranks accesses by temporal distance to the aligned
	// point: later accesses rank higher.
	Temporal Heuristic = iota
	// Dependence ranks accesses by dependence distance to the slicing
	// criterion; accesses outside the slice get PriorityBottom.
	Dependence
)

func (h Heuristic) String() string {
	if h == Dependence {
		return "dep"
	}
	return "temporal"
}

// CollectAccesses finds every access (read or write) to a CSV in the
// recorded trace and assigns priorities under the chosen heuristic.
// Only accesses at or before the aligned step are prioritized — they
// are the ones that can have contributed to the observed value
// differences — while later accesses carry the bottom priority ⊥ (they
// still matter to the schedule search through the future-CSV-set
// annotations, like the x=0 access of the paper's Fig. 9). csvVars
// identifies the CSVs in the passing run's location terms; each
// access's CSV is its variable's index there. Accesses come in trace
// order, an event's reads before its writes.
func CollectAccesses(rec *trace.Recorder, csvVars []interp.VarID,
	alignStep int64, h Heuristic, sl *Slice) []Access {

	// csv maps a variable id to its CSV index plus one; 0 marks a
	// variable that is not a CSV.
	csv := make([]int32, len(rec.Vars))
	for i, v := range csvVars {
		if id, ok := rec.ID(v); ok && csv[id] == 0 {
			csv[id] = int32(i) + 1
		}
	}
	n := 0
	for i := range rec.Events {
		for _, v := range rec.Reads(i) {
			if csv[v] != 0 {
				n++
			}
		}
		for _, v := range rec.Writes(i) {
			if csv[v] != 0 {
				n++
			}
		}
	}
	out := make([]Access, 0, n)
	for i := range rec.Events {
		e := &rec.Events[i]
		for _, v := range rec.Reads(i) {
			if c := csv[v]; c != 0 {
				out = append(out, Access{Step: e.Step, Thread: e.Thread, PC: e.PC, Var: rec.Vars[v],
					Priority: PriorityBottom, CSV: int(c) - 1})
			}
		}
		for _, v := range rec.Writes(i) {
			if c := csv[v]; c != 0 {
				out = append(out, Access{Step: e.Step, Thread: e.Thread, PC: e.PC, Var: rec.Vars[v],
					IsWrite: true, Priority: PriorityBottom, CSV: int(c) - 1})
			}
		}
	}

	// out[:elig] are the prioritizable accesses (at or before the
	// aligned point), oldest first.
	elig := 0
	for elig < len(out) && out[elig].Step <= alignStep {
		elig++
	}

	switch h {
	case Temporal:
		// Closest to the aligned point ranks first.
		for rank, pos := 1, elig-1; pos >= 0; rank, pos = rank+1, pos-1 {
			out[pos].Priority = rank
		}
	case Dependence:
		type keyed struct {
			idx  int
			dist int
		}
		ks := make([]keyed, elig)
		for i := range ks {
			dist := PriorityBottom
			if sl != nil {
				if d, ok := sl.Distance(out[i].Step); ok {
					dist = d
				}
			}
			ks[i] = keyed{idx: i, dist: dist}
		}
		slices.SortStableFunc(ks, func(a, b keyed) int { return cmp.Compare(a.dist, b.dist) })
		for pos, k := range ks {
			if k.dist == PriorityBottom {
				break // the remainder are irrelevant to the failure
			}
			out[k.idx].Priority = pos + 1
		}
	}
	return out
}
