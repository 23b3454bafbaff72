package chess

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"heisendump/internal/telemetry"
)

// worklist is Algorithm 2's exploration order over every preemption
// combination up to the bound, produced on demand: at(r) returns the
// combination at rank r. Rank order is the deterministic exploration
// order of the sequential search; the parallel searcher commits
// results in rank order, so the search outcome is a pure function of
// the worklist regardless of how trials are scheduled across workers.
//
// Generation order is size-major — all 1-subsets, then all 2-subsets,
// ... — and lexicographic over candidate indices within each size:
// {0,1,2}, {0,1,3}, {0,1,4}, ... Unweighted (original CHESS), a rank
// is its generation index, so the order is the linear search the
// paper describes and each combination is unranked directly. The
// enhanced algorithm orders by combination weight (the sum of each
// member's best block priority), lighter first, keeping generation
// order as the tiebreak.
//
// A non-nil static focus (Options.Static: the slots whose base names
// the lockset analyzer flagged in race candidates) adds a primary key
// in front of the weight: combinations whose candidates' blocks touch
// more flagged variables explore first. A nil set leaves the order — and therefore the
// determinism contract — exactly as without static guidance.
//
// An ordered worklist is produced best-first, only as far as the
// search claims ranks. The candidates are sorted once by their own key,
// equal keys by index, so a combination is a set of sorted positions
// whose key is the sum of its members' keys. Each s-subset of positions
// is a node of a tree rooted at {0, …, s−1}: a child advances the
// node's active member one free position or, once that member has
// moved, advances the member before it and makes that one active.
// Every subset is reached exactly once. The key is additive and
// lexicographic, so no child's key is below its parent's; and a child
// with its parent's key swaps a member for an equal-keyed one of higher
// index, so it follows its parent in generation order. Every child thus
// follows its parent in the full order, and a min-heap frontier seeded
// with the roots yields the ranks in order. Set-up is O(n log n);
// memory is one entry per produced rank plus a frontier of at most
// produced + bound nodes.
type worklist struct {
	n     int // candidates
	bound int // min(Options.Bound, n)
	// size is the number of combinations, Σ C(n,s) for 1 ≤ s ≤ bound,
	// saturating at math.MaxInt.
	size int
	// choose[m*(bound+1)+k] is C(m, k) for m ≤ n, k ≤ bound, saturating
	// at math.MaxInt.
	choose []int

	// cand is nil for the unweighted, unguided order. Otherwise cand,
	// hits and weight give the candidate index and key terms at each
	// sorted position, best key first.
	cand   []int32
	hits   []int
	weight []int

	// mu guards the best-first production state: the frontier min-heap,
	// whose nodes keep their positions and combinations in nodeBuf, and
	// the produced ranks, whose combinations are concatenated in combos
	// with rank r ending at ends[r].
	mu       sync.Mutex
	frontier []wlNode
	nodeBuf  []int32
	combos   []int32
	ends     []int
}

// wlNode is one frontier node of the best-first order. It holds no
// pointers, so the heap moves it without write barriers.
type wlNode struct {
	// static is the combination's static-guidance score: total
	// flagged-variable accesses across member blocks. Zero whenever
	// guidance is off.
	static int
	// weight is the sum of the members' MinPriority. Zero when the
	// order is unweighted.
	weight int
	// nodeBuf[off:off+size] holds the members' sorted positions,
	// ascending, and nodeBuf[off+size:off+2*size] the combination: their
	// candidate indices, ascending.
	off  int
	size int32
	// active is the member (index into the positions) that the node's
	// children advance.
	active int32
}

// newWorklist builds the exploration order over cands' combinations
// of at most bound members.
func newWorklist(cands []Candidate, bound int, weighted bool, static *Focus) *worklist {
	n := len(cands)
	bound = min(bound, n)
	wl := &worklist{n: n, bound: bound, choose: make([]int, (n+1)*(bound+1))}
	for m := 0; m <= n; m++ {
		wl.choose[m*(bound+1)] = 1
		for k := 1; k <= bound && k <= m; k++ {
			wl.choose[m*(bound+1)+k] = satAdd(wl.binom(m-1, k-1), wl.binom(m-1, k))
		}
	}
	for s := 1; s <= bound; s++ {
		wl.size = satAdd(wl.size, wl.binom(n, s))
	}
	if !weighted && static == nil {
		return wl
	}

	// Each candidate's key terms, computed once. hits counts accesses
	// rather than distinct variables, so a block that hammers a racy
	// variable ranks above one that brushes it once.
	weight := make([]int, n)
	hits := make([]int, n)
	wl.cand = make([]int32, n)
	for ci := range cands {
		wl.cand[ci] = int32(ci)
		if weighted {
			weight[ci] = cands[ci].MinPriority()
		}
		for _, a := range cands[ci].Accesses {
			if static != nil && static.Has(a.Var) {
				hits[ci]++
			}
		}
	}
	if static != nil {
		telemetry.ChessGuidanceReorders.Inc()
	}
	slices.SortFunc(wl.cand, func(a, b int32) int {
		if c := cmp.Compare(hits[b], hits[a]); c != 0 {
			return c
		}
		if c := cmp.Compare(weight[a], weight[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	wl.hits = make([]int, n)
	wl.weight = make([]int, n)
	for p, ci := range wl.cand {
		wl.hits[p], wl.weight[p] = hits[ci], weight[ci]
	}
	for s := 1; s <= bound; s++ {
		root := wlNode{off: len(wl.nodeBuf), size: int32(s), active: int32(s - 1)}
		wl.nodeBuf = slices.Grow(wl.nodeBuf, 2*s)[:root.off+2*s]
		for p := range s {
			wl.nodeBuf[root.off+p] = int32(p)
			root.static += wl.hits[p]
			root.weight += wl.weight[p]
		}
		wl.fill(&root)
		wl.push(root)
	}
	return wl
}

// at returns the combination (candidate indices) at rank r < size,
// first producing the best-first order as far as r. Safe for
// concurrent use; the result is freshly allocated.
func (wl *worklist) at(r int) []int {
	if wl.cand == nil {
		return wl.unrank(r)
	}
	wl.mu.Lock()
	defer wl.mu.Unlock()
	for len(wl.ends) <= r {
		wl.next()
	}
	lo := 0
	if r > 0 {
		lo = wl.ends[r-1]
	}
	combo := make([]int, wl.ends[r]-lo)
	for i, ci := range wl.combos[lo:wl.ends[r]] {
		combo[i] = int(ci)
	}
	return combo
}

// combo is nd's combination: its candidate indices, ascending.
func (wl *worklist) combo(nd *wlNode) []int32 {
	s := int(nd.size)
	return wl.nodeBuf[nd.off+s : nd.off+2*s]
}

// next produces the next rank: it appends the frontier's least node to
// the produced ranks and replaces it with its children, its active
// member advanced one free position and, once that member has left its
// root position, the member before it (still at its root position)
// advanced one position and made active. The advancing child, or else
// the other, reuses the node's storage. wl.mu must be held.
func (wl *worklist) next() {
	nd := wl.frontier[0]
	wl.combos = append(wl.combos, wl.combo(&nd)...)
	wl.ends = append(wl.ends, len(wl.combos))
	j, s := int(nd.active), int(nd.size)
	q := wl.nodeBuf[nd.off+j]
	limit := int32(wl.n)
	if j+1 < s {
		limit = wl.nodeBuf[nd.off+j+1]
	}
	advance := q+1 < limit
	moved := j > 0 && q > int32(j)
	var child wlNode
	if moved {
		child = nd
		if advance {
			child.off = len(wl.nodeBuf)
			wl.nodeBuf = append(wl.nodeBuf, wl.nodeBuf[nd.off:nd.off+2*s]...)
		}
		wl.nodeBuf[child.off+j-1] = int32(j)
		child.static += wl.hits[j] - wl.hits[j-1]
		child.weight += wl.weight[j] - wl.weight[j-1]
		child.active--
		wl.fill(&child)
	}
	if advance {
		wl.nodeBuf[nd.off+j] = q + 1
		nd.static += wl.hits[q+1] - wl.hits[q]
		nd.weight += wl.weight[q+1] - wl.weight[q]
		wl.fill(&nd)
		wl.replaceRoot(nd)
	} else {
		last := wl.frontier[len(wl.frontier)-1]
		wl.frontier = wl.frontier[:len(wl.frontier)-1]
		if len(wl.frontier) > 0 {
			wl.replaceRoot(last)
		}
	}
	if moved {
		wl.push(child)
	}
}

// fill sets nd's combination from its positions.
func (wl *worklist) fill(nd *wlNode) {
	c := wl.combo(nd)
	for i, p := range wl.nodeBuf[nd.off : nd.off+int(nd.size)] {
		c[i] = wl.cand[p]
	}
	slices.Sort(c)
}

// less orders frontier nodes: more static hits first, then lighter
// weight, then generation order (size, then lexicographic combination).
func (wl *worklist) less(a, b *wlNode) bool {
	if a.static != b.static {
		return a.static > b.static
	}
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	if a.size != b.size {
		return a.size < b.size
	}
	ca, cb := wl.combo(a), wl.combo(b)
	for i, ci := range ca {
		if ci != cb[i] {
			return ci < cb[i]
		}
	}
	return false
}

// push adds nd to the frontier min-heap.
func (wl *worklist) push(nd wlNode) {
	h := append(wl.frontier, nd)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !wl.less(&h[i], &h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	wl.frontier = h
}

// replaceRoot puts nd at the root of the non-empty frontier and sifts
// it down.
func (wl *worklist) replaceRoot(nd wlNode) {
	h := wl.frontier
	i := 0
	for {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if m+1 < len(h) && wl.less(&h[m+1], &h[m]) {
			m++
		}
		if !wl.less(&h[m], &nd) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = nd
}

// unrank returns the combination with generation index g.
func (wl *worklist) unrank(g int) []int {
	s, i := 1, g // i becomes the lexicographic index among the s-subsets
	for i >= wl.binom(wl.n, s) {
		i -= wl.binom(wl.n, s)
		s++
	}
	combo := make([]int, s)
	c := 0
	for p := range combo {
		// Skip past every subset whose p-th member is c: the rest of
		// it is one of the C(n-c-1, s-p-1) subsets of the candidates
		// above c.
		for i >= wl.binom(wl.n-c-1, s-p-1) {
			i -= wl.binom(wl.n-c-1, s-p-1)
			c++
		}
		combo[p] = c
		c++
	}
	return combo
}

// binom is C(m, k) for m ≤ n and k ≤ bound, read from the table.
func (wl *worklist) binom(m, k int) int {
	return wl.choose[m*(wl.bound+1)+k]
}

// satAdd is a + b for non-negative a and b, saturating at math.MaxInt.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}
