// Package index implements execution indexing (Xin, Sumner, Zhang,
// PLDI 2008) as used by the reproduction pipeline:
//
//   - an online tracker maintaining the current index of every thread
//     via the instrumentation rules of the paper's Fig. 4,
//   - reverse engineering of a failure point's index from a core dump
//     (Algorithm 1), using static control dependences and the loop
//     counters recovered from dumped stack frames, and
//   - alignment of a reverse-engineered index against the recorded
//     trace of a re-execution (the instrumentation rules of Fig. 7),
//     yielding the exact or closest aligned point.
//
// An index is the path from the root of the dynamic index tree to an
// execution point: the function bodies and predicate regions the point
// nests in, with n consecutive loop-head entries encoding "inside
// iteration n".
package index

import (
	"fmt"
	"strings"

	"heisendump/internal/ctrldep"
	"heisendump/internal/ir"
)

// Kind discriminates index entries.
type Kind uint8

const (
	// KFunc is a method-body region.
	KFunc Kind = iota
	// KBranch is a predicate-branch region: predicate PC with outcome
	// Taken.
	KBranch
	// KAgg is an aggregated complex-predicate region: all branches
	// lowered from one source conditional, with the decided outcome
	// Taken. Reverse engineering produces these for statements with
	// multiple aggregatable control dependences.
	KAgg
)

// Entry is one region on an index path.
type Entry struct {
	Kind Kind
	// Func is the function index the region belongs to.
	Func int
	// PC is the branch instruction index (KBranch only).
	PC int
	// Group is the predicate group id (KAgg only).
	Group int
	// Taken is the branch or complex-predicate outcome.
	Taken bool
}

// Index identifies one execution point of one thread.
type Index struct {
	// Thread is the creation-order thread id the index belongs to.
	Thread int
	// Entries is the region path from the thread's root to the point.
	Entries []Entry
	// Leaf is the execution point itself.
	Leaf ir.PC
}

// Len returns the region-path length, the quantity Table 3 reports as
// len(index).
func (x *Index) Len() int { return len(x.Entries) }

// Format renders the index with function names and branch outcomes,
// e.g. "T1 -> 3T -> 3T -> 11T -> F | leaf T1@12".
func (x *Index) Format(prog *ir.Program) string {
	var sb strings.Builder
	for i, e := range x.Entries {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		sb.WriteString(e.format(prog))
	}
	fmt.Fprintf(&sb, " | leaf %s", prog.FormatPC(x.Leaf))
	return sb.String()
}

func (e Entry) format(prog *ir.Program) string {
	switch e.Kind {
	case KFunc:
		return prog.Funcs[e.Func].Name
	case KBranch:
		return fmt.Sprintf("%d%s", e.PC, tf(e.Taken))
	case KAgg:
		return fmt.Sprintf("g%d%s", e.Group, tf(e.Taken))
	}
	return "?"
}

func tf(b bool) string {
	if b {
		return "T"
	}
	return "F"
}

// Equal reports whether two indices are identical.
func (x *Index) Equal(y *Index) bool {
	if x.Thread != y.Thread || x.Leaf != y.Leaf || len(x.Entries) != len(y.Entries) {
		return false
	}
	for i := range x.Entries {
		if x.Entries[i] != y.Entries[i] {
			return false
		}
	}
	return true
}

// groupSize counts the branch instructions belonging to a predicate
// group; groups of size >= 2 come from short-circuit lowering and are
// matched in aggregated form.
func groupSize(fn *ir.Func, group int) int {
	if group < 0 {
		return 0
	}
	n := 0
	for i := range fn.Instrs {
		if fn.Instrs[i].Op == ir.OpBranch && fn.Instrs[i].PredGroup == group {
			n++
		}
	}
	return n
}

// Canonicalize rewrites raw (online-tracked) entries into the
// canonical form reverse engineering produces: every branch entry of a
// multi-branch predicate group becomes an aggregated entry with the
// group's decided outcome, and consecutive duplicate aggregated
// entries collapse. Loop heads always form single-branch groups and
// are left alone, preserving the iteration-count spine.
func Canonicalize(prog *ir.Program, pdeps *ctrldep.ProgramDeps, entries []Entry) []Entry {
	var out []Entry
	for _, e := range entries {
		if e.Kind != KBranch {
			out = append(out, e)
			continue
		}
		fn := prog.Funcs[e.Func]
		in := &fn.Instrs[e.PC]
		if in.PredGroup < 0 || groupSize(fn, in.PredGroup) < 2 {
			out = append(out, e)
			continue
		}
		fd := pdeps.Funcs[e.Func]
		outcome, decided := fd.GroupOutcome(ctrldep.Dep{Pred: e.PC, Taken: e.Taken})
		if !decided {
			// An undecided edge only continues the chain; the decided
			// edge that follows carries the region identity.
			continue
		}
		agg := Entry{Kind: KAgg, Func: e.Func, Group: in.PredGroup, Taken: outcome}
		if len(out) > 0 && out[len(out)-1] == agg {
			continue
		}
		out = append(out, agg)
	}
	return out
}
