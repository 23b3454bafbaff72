// Package slicing implements backward dynamic slicing over recorded
// traces (Korel & Laski; the trace-based algorithms of Zhang, Gupta &
// Zhang). The pipeline slices from the aligned point's variables to
// rank critical-shared-variable accesses by dependence distance — the
// paper's second prioritization heuristic (§4).
package slicing

import (
	"sort"

	"heisendump/internal/ctrldep"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/trace"
)

// Slice is the result of one backward dynamic slice: for each trace
// step in the slice, its dependence distance (number of dependence
// edges) from the criterion.
type Slice struct {
	// Distance maps step numbers to dependence distance; steps absent
	// from the map are not in the slice.
	Distance map[int64]int
	// CriterionStep is the step the slice started from.
	CriterionStep int64
}

// InSlice reports whether step is in the slice.
func (s *Slice) InSlice(step int64) bool {
	_, ok := s.Distance[step]
	return ok
}

// Compute slices backward from the event at criterionStep through data
// dependences (each read reaches the latest earlier write of the same
// location) and dynamic control dependences (each event reaches the
// latest earlier execution, in its thread, of one of its static
// control-dependence predicates).
//
// criterionVars names the slicing criterion: the variables whose values
// at the criterion step matter. When nil, the criterion event's own
// reads are used — the divergence-predicate variables for closest
// alignments, the crash-triggering variables for exact alignments.
// events is a whole recorded run, so an event's Step is its index.
func Compute(prog *ir.Program, pdeps *ctrldep.ProgramDeps, events []trace.Event,
	criterionStep int64, criterionVars []interp.VarID) *Slice {

	// Write sites per location and branch sites per (thread, pc), each
	// ordered by step, for latest-before lookups.
	writes := map[interp.VarID][]int64{}
	branches := map[branchKey][]int64{}
	for i := range events {
		e := &events[i]
		for _, w := range e.Writes {
			writes[w] = append(writes[w], e.Step)
		}
		if e.IsBranch {
			k := branchKey{thread: e.Thread, pc: e.PC}
			branches[k] = append(branches[k], e.Step)
		}
	}

	sl := &Slice{Distance: map[int64]int{}, CriterionStep: criterionStep}
	if criterionStep < 0 || criterionStep >= int64(len(events)) {
		return sl
	}

	type item struct {
		step  int64
		depth int
	}
	var queue []item
	visit := func(step int64, depth int) {
		if _, seen := sl.Distance[step]; seen {
			return
		}
		sl.Distance[step] = depth
		queue = append(queue, item{step, depth})
	}

	// Seed: the criterion event itself at distance 0, plus the last
	// defs of explicit criterion variables.
	visit(criterionStep, 0)
	seedVars := criterionVars
	if seedVars == nil {
		seedVars = events[criterionStep].Reads
	}
	for _, v := range seedVars {
		if d, ok := lastBefore(writes[v], criterionStep+1); ok {
			visit(d, 1)
		}
	}

	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		e := &events[it.step]
		for _, v := range e.Reads {
			if d, ok := lastBefore(writes[v], e.Step); ok {
				visit(d, it.depth+1)
			}
		}
		// Dynamic control dependence: the latest earlier execution of a
		// static control-dependence predicate in the same thread.
		for _, dep := range pdeps.Funcs[e.PC.F].DepsOf(e.PC.I) {
			k := branchKey{thread: e.Thread, pc: ir.PC{F: e.PC.F, I: dep.Pred}}
			if d, ok := lastBefore(branches[k], e.Step); ok {
				visit(d, it.depth+1)
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
	i := sort.Search(len(steps), func(i int) bool { return steps[i] >= bound })
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
// trace and assigns priorities under the chosen heuristic. Only
// accesses at or before the aligned step are prioritized — they are
// the ones that can have contributed to the observed value differences
// — while later accesses carry the bottom priority ⊥ (they still
// matter to the schedule search through the future-CSV-set
// annotations, like the x=0 access of the paper's Fig. 9). csvVars
// identifies the CSVs in the passing run's location terms.
func CollectAccesses(events []trace.Event, csvVars []interp.VarID,
	alignStep int64, h Heuristic, sl *Slice) []Access {

	csv := make(map[interp.VarID]bool, len(csvVars))
	for _, v := range csvVars {
		csv[v] = true
	}
	var out []Access
	for i := range events {
		e := &events[i]
		for _, v := range e.Reads {
			if csv[v] {
				out = append(out, Access{Step: e.Step, Thread: e.Thread, PC: e.PC, Var: v,
					Priority: PriorityBottom})
			}
		}
		for _, v := range e.Writes {
			if csv[v] {
				out = append(out, Access{Step: e.Step, Thread: e.Thread, PC: e.PC, Var: v,
					IsWrite: true, Priority: PriorityBottom})
			}
		}
	}

	// Indices of prioritizable accesses (at or before the aligned
	// point), oldest first.
	var elig []int
	for i := range out {
		if out[i].Step <= alignStep {
			elig = append(elig, i)
		}
	}

	switch h {
	case Temporal:
		// Closest to the aligned point ranks first.
		for rank, pos := 1, len(elig)-1; pos >= 0; rank, pos = rank+1, pos-1 {
			out[elig[pos]].Priority = rank
		}
	case Dependence:
		type keyed struct {
			idx  int
			dist int
		}
		ks := make([]keyed, 0, len(elig))
		for _, i := range elig {
			dist := PriorityBottom
			if sl != nil {
				if d, ok := sl.Distance[out[i].Step]; ok {
					dist = d
				}
			}
			ks = append(ks, keyed{idx: i, dist: dist})
		}
		sort.SliceStable(ks, func(a, b int) bool { return ks[a].dist < ks[b].dist })
		for pos, k := range ks {
			if k.dist == PriorityBottom {
				break // the remainder are irrelevant to the failure
			}
			out[k.idx].Priority = pos + 1
		}
	}
	return out
}
