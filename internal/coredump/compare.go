package coredump

import (
	"slices"
	"strings"
	"sync"

	"heisendump/internal/interp"
)

// Compare compares the primitives at identical reference paths of two
// dumps, per the paper's §4: a is conventionally the failure dump and b
// the aligned-point (passing run) dump. The result is Traverse's: the
// locations of a, in a's traversal order, each compared with the
// location of b at the same path (with several, the last in b's
// traversal order).
//
// Compare renders no path for a location that does not differ. It
// walks b once, interning its reference paths as a tree whose nodes
// hold b's location at each path, then walks a from the same roots in
// the same order: globals and each failing function's locals by a
// merge of the sorted names, arrays element by element, and the heap
// breadth first, each a object's sorted fields merged with the
// children of b's node at the same path. Each side keeps its own
// visited set, so both walks reach exactly the locations Traverse
// enumerates. The scratch space is pooled, so comparing allocates only
// the result and its differences.
func Compare(a, b *Dump) *DiffResult {
	c, _ := comparers.Get().(*comparer)
	if c == nil {
		c = &comparer{}
	}
	c.res = &DiffResult{}
	c.indexB(b)
	c.walkA(a, b)
	res := c.res
	c.release()
	comparers.Put(c)
	return res
}

var comparers sync.Pool

// comparer is one comparison's scratch space.
type comparer struct {
	res *DiffResult

	// nodes are b's reference paths. Global roots are
	// nodes[globals.first:][:globals.n], sorted by name; each group
	// lists one failing function's local roots, sorted by name; a
	// node's children are kids[kids:][:nkids], sorted by name.
	nodes   []pathNode
	kids    []int32
	globals span
	groups  []localGroup

	queue []walkItem
	paths []pathRef // a's pointer locations, the parents of heap paths
	pairs []namedValue
	names []string
	ids   []int32

	seenA, seenB visitSet
}

// pathNode is one reference path of b: its last component and b's last
// location there.
type pathNode struct {
	name        string
	val         interp.Value // normalized
	v           Var
	kids, nkids int32
}

type span struct{ first, n int32 }

// localGroup holds the local roots of the failing frames of one
// function, whose paths ("local:F.x") coincide across those frames.
type localGroup struct {
	fn string
	span
}

// walkItem is one pointer target queued for the breadth-first walk,
// with b's node at the pointer's path (-1: none) and, on a's walk, the
// pointer's pathRef.
type walkItem struct {
	obj        interp.ObjID
	node, path int32
}

// pathRef is a location's reference path: a root's name, or the field
// name below the pointer location paths[parent].
type pathRef struct {
	parent int32 // -1 for a root
	local  bool  // a failing frame's local of function fn
	fn     string
	name   string
}

type namedValue struct {
	name string
	v    interp.Value
}

// release empties the scratch for the next comparison, dropping the
// result and the dumps' names it held.
func (c *comparer) release() {
	c.res = nil
	clear(c.nodes)
	clear(c.groups)
	clear(c.paths)
	clear(c.pairs)
	clear(c.names)
	c.nodes, c.kids, c.groups, c.queue = c.nodes[:0], c.kids[:0], c.groups[:0], c.queue[:0]
	c.paths, c.pairs, c.names, c.ids = c.paths[:0], c.pairs[:0], c.names[:0], c.ids[:0]
}

// sorted returns m's entries sorted by name, in c.pairs.
func (c *comparer) sorted(m map[string]interp.Value) []namedValue {
	c.pairs = c.pairs[:0]
	for name, v := range m {
		c.pairs = append(c.pairs, namedValue{name, v})
	}
	slices.SortFunc(c.pairs, func(x, y namedValue) int { return strings.Compare(x.name, y.name) })
	return c.pairs
}

// newNodes appends a node per name, in order, and returns their span.
func (c *comparer) newNodes(names []string) span {
	s := span{first: int32(len(c.nodes)), n: int32(len(names))}
	for _, name := range names {
		c.nodes = append(c.nodes, pathNode{name: name})
	}
	return s
}

// set records b's location v (in b's terms, id) at node n, queueing a
// non-null pointer's target.
func (c *comparer) set(n int32, v interp.Value, id Var) {
	if v.Kind == interp.KPtr {
		if v.Obj() != 0 {
			c.queue = append(c.queue, walkItem{obj: v.Obj(), node: n})
		}
		v = normalizePtr(v)
	}
	c.nodes[n].val, c.nodes[n].v = v, id
}

// next advances the sorted span s past the nodes named below name and
// returns the node named name at its head, or -1. Called with names in
// increasing order, it merges them with the span.
func (c *comparer) next(s *span, name string) int32 {
	for s.n > 0 && c.nodes[s.first].name < name {
		s.first, s.n = s.first+1, s.n-1
	}
	if s.n > 0 && c.nodes[s.first].name == name {
		return s.first
	}
	return -1
}

// indexB walks b as Traverse does, interning its paths.
func (c *comparer) indexB(b *Dump) {
	c.seenB.reset(len(b.Heap))
	for _, p := range c.sorted(b.Globals) {
		c.names = append(c.names, p.name)
	}
	c.globals = c.newNodes(c.names)
	for i, p := range c.pairs {
		c.set(c.globals.first+int32(i), p.v, Var{Kind: interp.VGlobal, Name: p.name})
	}

	// One group per failing function, over the union of its frames'
	// locals; a frame's locals then set their group's nodes, so a
	// function's topmost frame holding a local sets it last.
	frames := b.FailingFrames()
	for i, fr := range frames {
		if c.group(fr.FuncName) >= 0 {
			continue
		}
		c.names = c.names[:0]
		for _, other := range frames[i:] {
			if other.FuncName == fr.FuncName {
				for name := range other.Locals {
					c.names = append(c.names, name)
				}
			}
		}
		slices.Sort(c.names)
		c.names = slices.Compact(c.names)
		c.groups = append(c.groups, localGroup{fn: fr.FuncName, span: c.newNodes(c.names)})
	}
	for _, fr := range frames {
		g := c.groups[c.group(fr.FuncName)].span
		for _, p := range c.sorted(fr.Locals) {
			c.set(c.next(&g, p.name), p.v, Var{Kind: interp.VLocal, Name: p.name, FrameID: fr.FrameID})
		}
	}

	for h := 0; h < len(c.queue); h++ {
		it := c.queue[h]
		if !c.seenB.visit(it.obj) {
			continue
		}
		fields, ok := b.Heap[it.obj]
		if !ok {
			continue
		}
		pairs := c.sorted(fields)
		for i, n := range c.children(it.node, pairs) {
			c.set(n, pairs[i].v, Var{Kind: interp.VField, Name: pairs[i].name, Obj: it.obj})
		}
	}
}

// group returns the index of fn's local group, or -1.
func (c *comparer) group(fn string) int {
	for i := range c.groups {
		if c.groups[i].fn == fn {
			return i
		}
	}
	return -1
}

// children returns, for each of pairs (sorted by name), the child of
// node n with that name, making the missing ones. A path reached once
// gets its children in one sorted span; one reached again (its
// failing function has several frames) gets a merged span.
func (c *comparer) children(n int32, pairs []namedValue) []int32 {
	c.ids = c.ids[:0]
	old := c.nodes[n].kids
	had := c.nodes[n].nkids
	start := int32(len(c.kids))
	var j int32
	for _, p := range pairs {
		for ; j < had && c.nodes[c.kids[old+j]].name < p.name; j++ {
			c.kids = append(c.kids, c.kids[old+j])
		}
		var id int32
		if j < had && c.nodes[c.kids[old+j]].name == p.name {
			id = c.kids[old+j]
			j++
		} else {
			id = int32(len(c.nodes))
			c.nodes = append(c.nodes, pathNode{name: p.name})
		}
		c.kids = append(c.kids, id)
		c.ids = append(c.ids, id)
	}
	for ; j < had; j++ {
		c.kids = append(c.kids, c.kids[old+j])
	}
	c.nodes[n].kids, c.nodes[n].nkids = start, int32(len(c.kids))-start
	return c.ids
}

// kid returns the child of node n named name, or -1; from is where the
// search starts among n's children, which the caller visits in name
// order, and the returned cursor is where the next one starts.
func (c *comparer) kid(n, from int32, name string) (id, next int32) {
	if n < 0 {
		return -1, from
	}
	nd := &c.nodes[n]
	for ; from < nd.nkids; from++ {
		k := c.kids[nd.kids+from]
		switch cmp := strings.Compare(c.nodes[k].name, name); {
		case cmp == 0:
			return k, from + 1
		case cmp > 0:
			return -1, from
		}
	}
	return -1, from
}

// walkA walks a as Traverse does, comparing each location with b's
// node at its path.
func (c *comparer) walkA(a, b *Dump) {
	c.seenA.reset(len(a.Heap))
	c.queue = c.queue[:0]
	g := c.globals
	for _, p := range c.sorted(a.Globals) {
		c.visit(p.v, Var{Kind: interp.VGlobal, Name: p.name}, c.next(&g, p.name), pathRef{parent: -1, name: p.name})
	}

	c.names = c.names[:0]
	for name := range a.Arrays {
		c.names = append(c.names, name)
	}
	slices.Sort(c.names)
	for _, name := range c.names {
		arrA := a.Arrays[name]
		arrB, ok := b.Arrays[name]
		if !ok {
			continue
		}
		for i := range min(len(arrA), len(arrB)) {
			va, vb := interp.IntVal(arrA[i]), interp.IntVal(arrB[i])
			c.res.VarsCompared++
			c.res.SharedCompared++
			if va != vb {
				v := Var{Kind: interp.VArrayElem, Name: name, Idx: int64(i)}
				c.res.Diffs = append(c.res.Diffs, ValueDiff{Path: elemPath(name, i), A: va, B: vb, Shared: true, AVar: v, BVar: v})
			}
		}
	}

	for _, fr := range a.FailingFrames() {
		var g span
		if i := c.group(fr.FuncName); i >= 0 {
			g = c.groups[i].span
		}
		for _, p := range c.sorted(fr.Locals) {
			c.visit(p.v, Var{Kind: interp.VLocal, Name: p.name, FrameID: fr.FrameID}, c.next(&g, p.name),
				pathRef{parent: -1, local: true, fn: fr.FuncName, name: p.name})
		}
	}

	for h := 0; h < len(c.queue); h++ {
		it := c.queue[h]
		if !c.seenA.visit(it.obj) {
			continue
		}
		fields, ok := a.Heap[it.obj]
		if !ok {
			continue
		}
		var cur int32
		for _, p := range c.sorted(fields) {
			var n int32
			n, cur = c.kid(it.node, cur, p.name)
			c.visit(p.v, Var{Kind: interp.VField, Name: p.name, Obj: it.obj}, n, pathRef{parent: it.path, name: p.name})
		}
	}
}

// visit handles a's location v (in a's terms, id) at path: it queues a
// non-null pointer's target, then compares v with b's node n at the
// same path, if any.
func (c *comparer) visit(v interp.Value, id Var, n int32, path pathRef) {
	if v.Kind == interp.KPtr {
		if v.Obj() != 0 {
			c.paths = append(c.paths, path)
			c.queue = append(c.queue, walkItem{obj: v.Obj(), node: n, path: int32(len(c.paths) - 1)})
		}
		v = normalizePtr(v)
	}
	if n < 0 {
		return
	}
	bn := &c.nodes[n]
	shared := id.Kind != interp.VLocal && bn.v.Kind != interp.VLocal
	c.res.VarsCompared++
	if shared {
		c.res.SharedCompared++
	}
	if v != bn.val {
		c.res.Diffs = append(c.res.Diffs, ValueDiff{Path: c.render(path), A: v, B: bn.val, Shared: shared, AVar: id, BVar: bn.v})
	}
}

// render spells out a reference path as Traverse does.
func (c *comparer) render(p pathRef) string {
	if p.parent >= 0 {
		return c.render(c.paths[p.parent]) + "->" + p.name
	}
	if p.local {
		return localPrefix(p.fn) + p.name
	}
	return p.name
}

// visitSet marks the objects one side's walk has visited: densely for
// the ids Capture assigns (1 to the heap's size), in a map for others.
type visitSet struct {
	dense  []bool
	sparse map[interp.ObjID]bool
}

func (s *visitSet) reset(heap int) {
	s.dense = slices.Grow(s.dense[:0], heap+1)[:heap+1]
	clear(s.dense)
	clear(s.sparse)
}

// visit marks o and reports whether it was unmarked.
func (s *visitSet) visit(o interp.ObjID) bool {
	if o > 0 && int64(o) < int64(len(s.dense)) {
		if s.dense[o] {
			return false
		}
		s.dense[o] = true
		return true
	}
	if s.sparse[o] {
		return false
	}
	if s.sparse == nil {
		s.sparse = map[interp.ObjID]bool{}
	}
	s.sparse[o] = true
	return true
}
