package chess

import (
	"sort"

	"heisendump/internal/telemetry"
)

// rankedCombo is one entry of Algorithm 2's worklist: a preemption
// combination (candidate indices) plus its CSV-access weight and its
// final exploration rank. Rank order is the deterministic exploration
// order of the sequential search; the parallel searcher commits
// results in rank order, so the search outcome is a pure function of
// the worklist regardless of how trials are scheduled across workers.
type rankedCombo struct {
	weight int
	// static is the combination's static-guidance score: total flagged-
	// variable accesses across member blocks. Zero whenever guidance is
	// off.
	static int
	rank   int
	combo  []int
}

// generateWorklist enumerates every preemption combination up to the
// bound in size-major order — all 1-subsets, then all 2-subsets, ... —
// so the unweighted (original CHESS) order is the linear search the
// paper describes. For the enhanced algorithm the list is stably
// sorted by combination weight (the sum of each member's best block
// priority), keeping generation order as the tiebreak. The returned
// slice order is the exploration order; rank is the index within it.
//
// Within each size the enumeration is lexicographic over candidate
// indices — {0,1,2}, {0,1,3}, {0,1,4}, ... The order is pinned by the
// determinism contract: Found/Schedule/Tries are a pure function of
// it.
//
// A non-nil static set (Options.Static: base names of statically
// flagged race variables) adds a primary sort key in front of the
// weight: combinations whose candidates' blocks touch more flagged
// variables explore first. A nil set leaves the order — and therefore
// the determinism contract — exactly as before.
func generateWorklist(cands []Candidate, bound int, weighted bool, static map[string]bool) []rankedCombo {
	// staticHits[ci]: how many of candidate ci's block accesses name a
	// statically flagged variable. Counting accesses (not distinct
	// variables) ranks a block that hammers a racy variable above one
	// that brushes it once.
	var staticHits []int
	if static != nil {
		staticHits = make([]int, len(cands))
		for ci := range cands {
			for _, a := range cands[ci].Accesses {
				if static[a.Var.Name] {
					staticHits[ci]++
				}
			}
		}
	}
	n := len(cands)
	total := 0
	for size := 1; size <= bound; size++ {
		total += binomial(n, size)
	}
	wl := make([]rankedCombo, 0, total)
	cur := make([]int, 0, bound)
	for size := 1; size <= bound; size++ {
		// All size-subsets share one exactly-sized backing array; each
		// combo is an append-then-reslice into it, so enumeration costs
		// two allocations per size instead of one per combination.
		arena := make([]int, 0, binomial(n, size)*size)
		var gsize func(startIdx int)
		gsize = func(startIdx int) {
			if len(cur) == size {
				arena = append(arena, cur...)
				combo := arena[len(arena)-size : len(arena) : len(arena)]
				w, st := 0, 0
				for _, ci := range combo {
					w += cands[ci].MinPriority()
					if staticHits != nil {
						st += staticHits[ci]
					}
				}
				wl = append(wl, rankedCombo{weight: w, static: st, rank: len(wl), combo: combo})
				return
			}
			for i := startIdx; i < n; i++ {
				cur = append(cur, i)
				gsize(i + 1)
				cur = cur[:len(cur)-1]
			}
		}
		gsize(0)
	}
	switch {
	case static != nil:
		// Static score first (more flagged accesses explore earlier),
		// then the CSV weight when the enhanced ordering is on, then
		// generation order. Stable, so ties keep the lexicographic
		// generation order.
		telemetry.ChessGuidanceReorders.Inc()
		sort.SliceStable(wl, func(i, j int) bool {
			if wl[i].static != wl[j].static {
				return wl[i].static > wl[j].static
			}
			if weighted && wl[i].weight != wl[j].weight {
				return wl[i].weight < wl[j].weight
			}
			return wl[i].rank < wl[j].rank
		})
	case weighted:
		sort.SliceStable(wl, func(i, j int) bool {
			if wl[i].weight != wl[j].weight {
				return wl[i].weight < wl[j].weight
			}
			return wl[i].rank < wl[j].rank
		})
	}
	for i := range wl {
		wl[i].rank = i
	}
	return wl
}

// binomial is C(n, k) without overflow for the small k the preemption
// bound allows.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}
