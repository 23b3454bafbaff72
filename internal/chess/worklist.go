package chess

import (
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
// A non-nil static set (Options.Static: base names of statically
// flagged race variables) adds a primary key in front of the weight:
// combinations whose candidates' blocks touch more flagged variables
// explore first. A nil set leaves the order — and therefore the
// determinism contract — exactly as without static guidance.
//
// An ordered worklist holds one pointer-free key per combination,
// Σ C(n,s) for s ≤ bound. The keys are heapified in O(N) and popped
// only as far as the search claims ranks, so a search that reproduces
// the failure early never orders the rest.
type worklist struct {
	n     int // candidates
	bound int
	size  int // combinations: Σ C(n,s) for 1 ≤ s ≤ bound
	// choose[m*(bound+1)+k] is C(m, k) for m ≤ n, k ≤ bound.
	choose []int

	// keys is nil for the unweighted, unguided order. Otherwise
	// keys[:heap] is a min-heap of the ranks not yet popped and
	// keys[heap:] holds the popped keys in reverse rank order: rank r
	// lives at keys[size-1-r]. mu guards both.
	mu   sync.Mutex
	keys []comboKey
	heap int
}

// comboKey places one combination in the exploration order: more
// static hits first, then lighter weight, then generation order.
type comboKey struct {
	// static is the combination's static-guidance score: total
	// flagged-variable accesses across member blocks. Zero whenever
	// guidance is off.
	static int
	// weight is the sum of the members' MinPriority. Zero when the
	// order is unweighted.
	weight int
	gen    int
}

func (a comboKey) less(b comboKey) bool {
	if a.static != b.static {
		return a.static > b.static
	}
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	return a.gen < b.gen
}

// newWorklist builds the exploration order over cands' combinations
// of at most bound members.
func newWorklist(cands []Candidate, bound int, weighted bool, static map[string]bool) *worklist {
	n := len(cands)
	wl := &worklist{n: n, bound: bound, choose: make([]int, (n+1)*(bound+1))}
	for m := 0; m <= n; m++ {
		wl.choose[m*(bound+1)] = 1
		for k := 1; k <= bound && k <= m; k++ {
			wl.choose[m*(bound+1)+k] = wl.binom(m-1, k-1) + wl.binom(m-1, k)
		}
	}
	for s := 1; s <= bound; s++ {
		wl.size += wl.binom(n, s)
	}
	if !weighted && static == nil {
		return wl
	}

	// Each candidate's key terms, computed once. hits counts accesses
	// rather than distinct variables, so a block that hammers a racy
	// variable ranks above one that brushes it once.
	weight := make([]int, n)
	hits := make([]int, n)
	for ci := range cands {
		if weighted {
			weight[ci] = cands[ci].MinPriority()
		}
		for _, a := range cands[ci].Accesses {
			if static[a.Var.Name] {
				hits[ci]++
			}
		}
	}
	if static != nil {
		telemetry.ChessGuidanceReorders.Inc()
	}
	wl.keys = make([]comboKey, 0, wl.size)
	cur := make([]int, 0, bound)
	for s := 1; s <= min(bound, n); s++ {
		cur = cur[:s]
		for i := range cur {
			cur[i] = i
		}
		for more := true; more; more = nextCombo(cur, n) {
			k := comboKey{gen: len(wl.keys)}
			for _, ci := range cur {
				k.static += hits[ci]
				k.weight += weight[ci]
			}
			wl.keys = append(wl.keys, k)
		}
	}
	wl.heap = len(wl.keys)
	for i := wl.heap/2 - 1; i >= 0; i-- {
		wl.siftDown(i)
	}
	return wl
}

// at returns the combination (candidate indices) at rank r < size,
// first popping the ordering heap as far as r. Safe for concurrent
// use; the result is freshly allocated.
func (wl *worklist) at(r int) []int {
	g := r
	if wl.keys != nil {
		wl.mu.Lock()
		for wl.heap > wl.size-1-r {
			wl.heap--
			wl.keys[0], wl.keys[wl.heap] = wl.keys[wl.heap], wl.keys[0]
			wl.siftDown(0)
		}
		g = wl.keys[wl.size-1-r].gen
		wl.mu.Unlock()
	}
	return wl.unrank(g)
}

// siftDown restores the heap property of keys[:heap] below index i.
func (wl *worklist) siftDown(i int) {
	h := wl.keys[:wl.heap]
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if m+1 < len(h) && h[m+1].less(h[m]) {
			m++
		}
		if !h[m].less(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
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

// nextCombo advances c to its lexicographic successor among the
// len(c)-subsets of [0, n), reporting false when c was the last one.
func nextCombo(c []int, n int) bool {
	s := len(c)
	i := s - 1
	for i >= 0 && c[i] == n-s+i {
		i--
	}
	if i < 0 {
		return false
	}
	c[i]++
	for j := i + 1; j < s; j++ {
		c[j] = c[j-1] + 1
	}
	return true
}
