package chess

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/slicing"
)

// rankedCombo is one entry of the oracle worklist: a combination plus
// its sort keys and generation rank.
type rankedCombo struct {
	weight int
	static int
	rank   int
	combo  []int
}

// oracleWorklist is the eager reference order the lazy worklist must
// reproduce: enumerate every combination up to the bound in size-major
// lexicographic order, then stably sort by static hits (descending)
// and, when weighted, CSV weight (ascending), generation order
// breaking ties.
func oracleWorklist(cands []Candidate, bound int, weighted bool, static *Focus) []rankedCombo {
	var staticHits []int
	if static != nil {
		staticHits = make([]int, len(cands))
		for ci := range cands {
			for _, a := range cands[ci].Accesses {
				if static.Has(a.Var) {
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

// binomial is C(n, k) for the oracle's exact-size allocations.
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

// CompareWorklistOrder checks the search's worklist against the eager
// oracle rank by rank and reports the first divergence. Exported for
// the external-package test that compares the Table 2 candidates.
func CompareWorklistOrder(cands []Candidate, bound int, weighted bool, static *Focus) error {
	want := oracleWorklist(cands, bound, weighted, static)
	wl := newWorklist(cands, bound, weighted, static)
	if wl.size != len(want) {
		return fmt.Errorf("worklist size %d, oracle %d", wl.size, len(want))
	}
	for r := range want {
		if got := wl.at(r); !slices.Equal(got, want[r].combo) {
			return fmt.Errorf("rank %d: got %v, oracle %v", r, got, want[r].combo)
		}
	}
	return nil
}

// randomCandidates builds n candidates whose block accesses are drawn
// to collide: half the accesses sit at PriorityBottom (and a quarter
// of the blocks touch no CSV at all), the rest share five priorities,
// and every access names one of four globals, two of which the
// returned static focus flags.
func randomCandidates(rng *rand.Rand, n int) ([]Candidate, *Focus) {
	cands := make([]Candidate, n)
	for i := range cands {
		cands[i].ID = i
		if rng.Intn(4) == 0 {
			continue
		}
		for range 1 + rng.Intn(4) {
			pri := slicing.PriorityBottom
			if rng.Intn(2) == 0 {
				pri = 1 + rng.Intn(5)
			}
			cands[i].Accesses = append(cands[i].Accesses, slicing.Access{
				Var:      interp.VarID{Kind: interp.VGlobal, Slot: int32(rng.Intn(len(abcd.ScalarNames)))},
				Priority: pri,
			})
		}
	}
	return cands, NewFocus(abcd, map[string]bool{"a": true, "b": true})
}

// abcd is a program of four globals, the variables of randomCandidates.
var abcd = &ir.Program{ScalarNames: []string{"a", "b", "c", "d"}, BC: &ir.Bytecode{}}

// TestWorklistMatchesOracle compares the lazy order with the eager
// oracle on 300 seeded random candidate sets, bounds 1-3, weighted and
// static guidance each on and off. n runs from 0 to 40 at bounds 1
// and 2 and to 24 at bound 3 (where n=40 would be 10,700 combinations
// a set), and every tenth set has n at or below the bound. A further
// 60 sets run at bounds 4 and 5 with n up to 14.
func TestWorklistMatchesOracle(t *testing.T) {
	for seed := range 360 {
		rng := rand.New(rand.NewSource(int64(seed)))
		bound := 1 + seed%3
		n := rng.Intn(41)
		switch {
		case seed >= 300:
			bound = 4 + seed%2
			n = rng.Intn(15)
		case seed%10 == 0:
			n = rng.Intn(bound + 1)
		case bound == 3:
			n = rng.Intn(25)
		}
		cands, focus := randomCandidates(rng, n)
		for _, weighted := range []bool{false, true} {
			for _, static := range []*Focus{nil, focus} {
				if err := CompareWorklistOrder(cands, bound, weighted, static); err != nil {
					t.Fatalf("seed %d (n=%d bound=%d weighted=%v static=%v): %v",
						seed, n, bound, weighted, static != nil, err)
				}
			}
		}
	}
}

// TestWorklistPrefixAdjacency pins the exploration order: unweighted
// worklists are size-major, and within each size lexicographic over
// candidate indices. Found/Schedule/Tries are a pure function of this
// order, so reordering the worklist is a determinism-contract break.
func TestWorklistPrefixAdjacency(t *testing.T) {
	cands := make([]Candidate, 6)
	wl := newWorklist(cands, 3, false, nil)

	want := 6 + 15 + 20 // C(6,1) + C(6,2) + C(6,3)
	if wl.size != want {
		t.Fatalf("worklist size %d, want %d", wl.size, want)
	}
	prevSize := 0
	var prev []int
	for r := range wl.size {
		combo := wl.at(r)
		size := len(combo)
		if size < prevSize {
			t.Fatalf("rank %d: size %d after size %d — not size-major", r, size, prevSize)
		}
		if size == prevSize && !lexLess(prev, combo) {
			t.Fatalf("rank %d: %v not lexicographically after %v", r, combo, prev)
		}
		prevSize, prev = size, combo
	}
}

// TestWorklistConcurrentClaims: search workers share one ordered
// worklist and advance its best-first generator as they claim ranks.
// Goroutines claiming interleaved ranks from a shared counter, as the
// workers do, must see exactly the sequential order.
func TestWorklistConcurrentClaims(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cands, focus := randomCandidates(rng, 30)
	const bound = 3
	seq := newWorklist(cands, bound, true, focus)
	want := make([][]int, seq.size)
	for r := range want {
		want[r] = seq.at(r)
	}

	wl := newWorklist(cands, bound, true, focus)
	got := make([][]int, wl.size)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := int(next.Add(1) - 1)
				if r >= wl.size {
					return
				}
				got[r] = wl.at(r)
			}
		}()
	}
	wg.Wait()
	for r := range want {
		if !slices.Equal(got[r], want[r]) {
			t.Fatalf("rank %d: concurrent claim saw %v, sequential order has %v", r, got[r], want[r])
		}
	}
}

// TestWorklistSetupFollowsClaims: an ordered worklist costs what the
// search claims, not what the bound admits. Building the order over
// 200 candidates at bound 3 (1,333,500 combinations) and claiming its
// first 8 ranks must allocate under 256 KB: weighted and statically
// focused, and unweighted under a focus set no candidate touches, where
// every combination has the same key and rank r < n is {r}.
func TestWorklistSetupFollowsClaims(t *testing.T) {
	cands, focus := randomCandidates(rand.New(rand.NewSource(1)), 200)
	for _, tc := range []struct {
		weighted bool
		static   *Focus
	}{{true, focus}, {false, NewFocus(abcd, map[string]bool{"untouched": true})}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		wl := newWorklist(cands, 3, tc.weighted, tc.static)
		var claimed [8][]int
		for r := range claimed {
			claimed[r] = wl.at(r)
		}
		runtime.ReadMemStats(&after)
		for r, combo := range claimed {
			if !tc.weighted && !slices.Equal(combo, []int{r}) {
				t.Fatalf("all-ties order: rank %d is %v, want [%d]", r, combo, r)
			}
		}
		if wl.size != 1_333_500 {
			t.Fatalf("worklist size %d, want 1,333,500", wl.size)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 256<<10 {
			t.Fatalf("weighted=%v: building and claiming 8 ranks allocated %d bytes, want under 256 KB", tc.weighted, alloc)
		}
	}
}

var sinkCombo []int

// BenchmarkWorklist builds a weighted, statically focused worklist and
// claims its first 8 ranks, as a search that reproduces early does, or
// every rank, as an exhaustive one does.
func BenchmarkWorklist(b *testing.B) {
	for _, shape := range []struct{ n, bound int }{{70, 2}, {40, 3}} {
		cands, focus := randomCandidates(rand.New(rand.NewSource(1)), shape.n)
		for _, claim := range []string{"claim8", "all"} {
			b.Run(fmt.Sprintf("n=%d/bound=%d/%s", shape.n, shape.bound, claim), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					wl := newWorklist(cands, shape.bound, true, focus)
					ranks := wl.size
					if claim == "claim8" {
						ranks = min(ranks, 8)
					}
					for r := range ranks {
						sinkCombo = wl.at(r)
					}
				}
			})
		}
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
