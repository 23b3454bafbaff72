package statics

import (
	"math/bits"
	"sort"

	"heisendump/internal/ir"
	"heisendump/internal/lang"
)

// This file extracts every shared-location access from the compiled
// instruction stream, pairs conflicting accesses into race
// candidates, and mines the static lock-order graph for deadlock
// candidates.
//
// Shared locations are the storage classes that outlive a frame:
// global scalars (by slot), global arrays (by slot, index-insensitive
// except that two *constant* indices that differ provably do not
// alias), and heap object fields (by field name — objects are not
// distinguished statically, a deliberate over-approximation). Locals
// are thread-private by construction and never collected.

// maxPairsPerLocation caps the candidate pairs reported per shared
// location; adversarial generated programs can otherwise produce a
// quadratic report. The cap is recorded in Stats.RacePairsTruncated.
const maxPairsPerLocation = 64

// locKey identifies one shared location class.
type locKey struct {
	kind LocKind
	slot int32  // scalar/array slot; -1 for fields
	name string // base name (global, array or field name)
}

// access is one static shared-location access site.
type access struct {
	key   locKey
	fi    int // function index
	ii    int // instruction index
	line  int
	write bool
	held  uint64 // must-held lockset at the site
	roots uint64 // adjusted root bitset (main bit cleared in spawn-free prefix)

	// Array-index refinement: set when the index is a literal.
	constIdx    int64
	hasConstIdx bool
}

// lockEdge is a raw lock-order edge: lock `to` acquired at (fi, ii)
// while `from` was held.
type lockEdge struct {
	from, to int32
	fi, ii   int
	line     int
}

// collectAccesses walks every reachable, dataflow-visited instruction,
// recording shared accesses with their lockset/root witnesses, and the
// lock-order edges for the deadlock pass.
func (a *analysis) collectAccesses() {
	for fi, f := range a.prog.Funcs {
		if !a.reachable[fi] || a.in[fi] == nil {
			continue
		}
		roots := a.rootsOf[fi]
		for ii := range f.Instrs {
			if !a.visited[fi][ii] {
				continue // statically dead under the converged entry state
			}
			in := &f.Instrs[ii]
			held := a.in[fi][ii] & a.lockMask
			r := roots
			if a.spawnless != nil && len(a.rootList) > 0 && fi == a.rootList[0] && a.spawnless[ii] {
				r &^= 1 // main's spawn-free prefix happens-before every thread
			}
			at := func(key locKey, write bool, constIdx int64, hasConst bool) {
				a.accesses = append(a.accesses, access{
					key: key, fi: fi, ii: ii, line: in.Line, write: write,
					held: held, roots: r, constIdx: constIdx, hasConstIdx: hasConst,
				})
			}
			switch in.Op {
			case ir.OpAssign:
				a.walkLValue(f, in.SrcLHS, at)
				a.walkExpr(f, in.SrcRHS, at)
			case ir.OpBranch, ir.OpAssert:
				a.walkExpr(f, in.SrcCond, at)
			case ir.OpReturn, ir.OpOutput:
				a.walkExpr(f, in.SrcRHS, at)
			case ir.OpCall, ir.OpSpawn:
				for _, arg := range in.SrcArgs {
					a.walkExpr(f, arg, at)
				}
				a.walkLValue(f, in.SrcLHS, at)
			case ir.OpAcquire:
				for _, held := range a.heldLocks(held) {
					a.edges = append(a.edges, lockEdge{
						from: held, to: in.Lock, fi: fi, ii: ii, line: in.Line,
					})
				}
			}
		}
	}
	a.stats.Accesses = len(a.accesses)
}

// heldLocks expands a lockset bitset into sorted lock ids.
func (a *analysis) heldLocks(held uint64) []int32 {
	if held == 0 {
		return nil
	}
	out := make([]int32, 0, bits.OnesCount64(held))
	for held != 0 {
		id := bits.TrailingZeros64(held)
		out = append(out, int32(id))
		held &^= 1 << uint(id)
	}
	return out
}

type accessSink func(key locKey, write bool, constIdx int64, hasConst bool)

// walkExpr records every shared read in e, an operand of one of fn's
// instructions. A variable that is not one of fn's locals is a global
// scalar.
func (a *analysis) walkExpr(fn *ir.Func, e lang.Expr, at accessSink) {
	switch e := e.(type) {
	case *lang.VarRef:
		if fn.LocalSlot(e.Name) < 0 {
			at(locKey{kind: LocScalar, slot: int32(a.prog.GlobalSlot(e.Name)), name: e.Name}, false, 0, false)
		}
	case *lang.IndexExpr:
		ci, hasConst := constIndex(e.Index)
		at(locKey{kind: LocArray, slot: int32(a.prog.ArraySlot(e.Name)), name: e.Name}, false, ci, hasConst)
		a.walkExpr(fn, e.Index, at)
	case *lang.FieldExpr:
		at(locKey{kind: LocField, slot: -1, name: e.Field}, false, 0, false)
		a.walkExpr(fn, e.Obj, at)
	case *lang.UnaryExpr:
		a.walkExpr(fn, e.X, at)
	case *lang.BinaryExpr:
		a.walkExpr(fn, e.X, at)
		a.walkExpr(fn, e.Y, at)
	}
}

// walkLValue records the shared write (and any embedded reads) in lv.
func (a *analysis) walkLValue(fn *ir.Func, lv lang.LValue, at accessSink) {
	switch lv := lv.(type) {
	case *lang.VarLV:
		if fn.LocalSlot(lv.Name) < 0 {
			at(locKey{kind: LocScalar, slot: int32(a.prog.GlobalSlot(lv.Name)), name: lv.Name}, true, 0, false)
		}
	case *lang.IndexLV:
		ci, hasConst := constIndex(lv.Index)
		at(locKey{kind: LocArray, slot: int32(a.prog.ArraySlot(lv.Name)), name: lv.Name}, true, ci, hasConst)
		a.walkExpr(fn, lv.Index, at)
	case *lang.FieldLV:
		at(locKey{kind: LocField, slot: -1, name: lv.Field}, true, 0, false)
		a.walkExpr(fn, lv.Obj, at)
	}
}

// constIndex returns the value of an array index that is an integer
// literal.
func constIndex(e lang.Expr) (int64, bool) {
	if lit, ok := e.(*lang.IntLit); ok {
		return lit.Value, true
	}
	return 0, false
}

// races pairs conflicting accesses per location into the report's
// sorted candidate list.
func (a *analysis) races() []Race {
	// Group accesses by location, preserving collection order (which
	// is already deterministic: function-major, instruction-minor).
	groups := map[locKey][]int{}
	var keys []locKey
	for i, acc := range a.accesses {
		if _, ok := groups[acc.key]; !ok {
			keys = append(keys, acc.key)
		}
		groups[acc.key] = append(groups[acc.key], i)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].slot < keys[j].slot
	})

	var out []Race
	for _, key := range keys {
		idxs := groups[key]
		pairs := 0
		shared := false
	pairLoop:
		for pi := 0; pi < len(idxs); pi++ {
			// Start pj at pi (not pi+1): a single site races with itself
			// when its function runs as multiple thread instances.
			for pj := pi; pj < len(idxs); pj++ {
				x, y := a.accesses[idxs[pi]], a.accesses[idxs[pj]]
				if !x.write && !y.write {
					continue
				}
				if !a.concurrent(x.roots, y.roots) {
					continue
				}
				shared = true
				if x.held&y.held != 0 {
					continue // a common lock orders them
				}
				if key.kind == LocArray && x.hasConstIdx && y.hasConstIdx && x.constIdx != y.constIdx {
					continue // provably distinct elements
				}
				if pairs >= maxPairsPerLocation {
					a.stats.RacePairsTruncated = true
					break pairLoop
				}
				pairs++
				out = append(out, Race{
					Var:  key.name,
					Kind: key.kind,
					A:    a.site(x),
					B:    a.site(y),
				})
			}
		}
		if shared {
			a.stats.SharedLocations++
		}
	}
	return out
}

// site renders an access as its report witness.
func (a *analysis) site(acc access) Site {
	return Site{
		Func:    a.prog.Funcs[acc.fi].Name,
		PC:      ir.PC{F: acc.fi, I: acc.ii},
		Line:    acc.line,
		Write:   acc.write,
		Lockset: a.lockNames(acc.held),
		Roots:   a.rootNames(acc.fi),
	}
}

// lockNames renders a lockset bitset as sorted lock names.
func (a *analysis) lockNames(held uint64) []string {
	ids := a.heldLocks(held)
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = a.prog.Locks[id]
	}
	sort.Strings(out)
	return out
}

// deadlocks mines the lock-order graph for cycles: each SCC with two
// or more locks — or a self-edge (re-acquiring a held lock, which the
// runtime cannot untangle either) — is one candidate.
func (a *analysis) deadlocks() []Deadlock {
	nLocks := len(a.prog.Locks)
	if nLocks == 0 || len(a.edges) == 0 {
		return nil
	}
	succs := make([][]int, nLocks)
	selfEdge := make([]bool, nLocks)
	for _, e := range a.edges {
		if e.from == e.to {
			selfEdge[e.from] = true
			continue
		}
		succs[e.from] = append(succs[e.from], int(e.to))
	}

	// Tarjan over lock nodes.
	index := make([]int, nLocks)
	low := make([]int, nLocks)
	onStack := make([]bool, nLocks)
	comp := make([]int, nLocks) // lock -> component id
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int
	next, nComp := 0, 0
	var strong func(v int)
	strong = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs[v] {
			if index[w] < 0 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = nComp
				if w == v {
					break
				}
			}
			nComp++
		}
	}
	for v := 0; v < nLocks; v++ {
		if index[v] < 0 {
			strong(v)
		}
	}

	// Component -> member locks; keep cyclic ones.
	members := make([][]int, nComp)
	for l, c := range comp {
		members[c] = append(members[c], l)
	}
	var out []Deadlock
	for c := 0; c < nComp; c++ {
		locks := members[c]
		if len(locks) < 2 && !selfEdge[locks[0]] {
			continue
		}
		inCycle := make(map[int]bool, len(locks))
		for _, l := range locks {
			inCycle[l] = true
		}
		d := Deadlock{}
		for _, l := range locks {
			d.Locks = append(d.Locks, a.prog.Locks[l])
		}
		sort.Strings(d.Locks)
		type edgeKey struct {
			from, to int32
			fi, line int
		}
		seen := map[edgeKey]bool{}
		for _, e := range a.edges {
			intra := inCycle[int(e.from)] && inCycle[int(e.to)] && (e.from != e.to || selfEdge[e.from])
			if !intra {
				continue
			}
			k := edgeKey{from: e.from, to: e.to, fi: e.fi, line: e.line}
			if seen[k] {
				continue
			}
			seen[k] = true
			d.Edges = append(d.Edges, LockEdge{
				From:  a.prog.Locks[e.from],
				To:    a.prog.Locks[e.to],
				Func:  a.prog.Funcs[e.fi].Name,
				Line:  e.line,
				Roots: a.rootNames(e.fi),
			})
		}
		sort.Slice(d.Edges, func(i, j int) bool {
			if d.Edges[i].From != d.Edges[j].From {
				return d.Edges[i].From < d.Edges[j].From
			}
			if d.Edges[i].To != d.Edges[j].To {
				return d.Edges[i].To < d.Edges[j].To
			}
			return d.Edges[i].Line < d.Edges[j].Line
		})
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		li, lj := out[i].Locks, out[j].Locks
		for k := 0; k < len(li) && k < len(lj); k++ {
			if li[k] != lj[k] {
				return li[k] < lj[k]
			}
		}
		return len(li) < len(lj)
	})
	return out
}
