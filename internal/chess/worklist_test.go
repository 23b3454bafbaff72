package chess

import "testing"

// TestWorklistPrefixAdjacency pins the exploration order: unweighted
// worklists are size-major, and within each size lexicographic over
// candidate indices. Found/Schedule/Tries are a pure function of this
// order, so reordering the worklist is a determinism-contract break.
func TestWorklistPrefixAdjacency(t *testing.T) {
	cands := make([]Candidate, 6)
	wl := generateWorklist(cands, 3, false, nil)

	want := binomial(6, 1) + binomial(6, 2) + binomial(6, 3)
	if len(wl) != want {
		t.Fatalf("worklist size %d, want %d", len(wl), want)
	}
	prevSize := 0
	var prev []int
	for r, rc := range wl {
		if rc.rank != r {
			t.Fatalf("rank %d stored as %d", r, rc.rank)
		}
		size := len(rc.combo)
		if size < prevSize {
			t.Fatalf("rank %d: size %d after size %d — not size-major", r, size, prevSize)
		}
		if size == prevSize && !lexLess(prev, rc.combo) {
			t.Fatalf("rank %d: %v not lexicographically after %v", r, rc.combo, prev)
		}
		prevSize, prev = size, rc.combo
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
