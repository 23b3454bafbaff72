package chess

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"heisendump/internal/interp"
	"heisendump/internal/slicing"
)

// annotateQuadratic is the reference Annotate: for each candidate, a
// scan of every candidate for its thread's next step and a scan of
// every access for its block and future set.
func annotateQuadratic(cands []Candidate, accesses []slicing.Access) {
	// Next candidate step per thread, for block delimitation.
	nextStep := make([]int64, len(cands))
	for i := range cands {
		nextStep[i] = int64(1) << 62
		for j := range cands {
			if cands[j].Thread == cands[i].Thread && cands[j].Step > cands[i].Step && cands[j].Step < nextStep[i] {
				nextStep[i] = cands[j].Step
			}
		}
	}
	sort.SliceStable(accesses, func(i, j int) bool { return accesses[i].Step < accesses[j].Step })
	for i := range cands {
		c := &cands[i]
		c.FutureCSVs = map[interp.VarID]bool{}
		for _, a := range accesses {
			if a.Thread != c.Thread {
				continue
			}
			if a.Step >= c.Step {
				c.FutureCSVs[a.Var] = true
				if a.Step < nextStep[i] {
					c.Accesses = append(c.Accesses, a)
				}
			}
		}
	}
}

// CompareAnnotate annotates copies of cands with Annotate and with the
// quadratic reference, each over its own copy of accesses, and reports
// the first difference: in a candidate's annotations, in the sorted
// accesses, or a future set shared between two candidates. Exported
// for the external-package test over the Table 2 candidates.
func CompareAnnotate(cands []Candidate, accesses []slicing.Access) error {
	got, want := unannotated(cands), unannotated(cands)
	gotAccs, wantAccs := append([]slicing.Access(nil), accesses...), append([]slicing.Access(nil), accesses...)
	Annotate(got, gotAccs)
	annotateQuadratic(want, wantAccs)
	if !reflect.DeepEqual(gotAccs, wantAccs) {
		return fmt.Errorf("sorted accesses differ:\n  got  %v\n  want %v", gotAccs, wantAccs)
	}
	seen := map[uintptr]int{}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("candidate %d:\n  got  %+v\n  want %+v", i, got[i], want[i])
		}
		p := reflect.ValueOf(got[i].FutureCSVs).Pointer()
		if j, ok := seen[p]; ok {
			return fmt.Errorf("candidates %d and %d share one future set", j, i)
		}
		seen[p] = i
	}
	return nil
}

// unannotated copies cands without their annotations.
func unannotated(cands []Candidate) []Candidate {
	out := make([]Candidate, len(cands))
	for i, c := range cands {
		out[i] = Candidate{ID: c.ID, Thread: c.Thread, Kind: c.Kind, Seq: c.Seq, Step: c.Step, Lock: c.Lock}
	}
	return out
}

// TestAnnotateMatchesQuadratic compares Annotate with the quadratic
// reference on 2,000 seeded random sets. Steps are drawn from a short
// range, so candidates share steps with each other and with accesses;
// candidates come in random order; accesses arrive unsorted, from
// threads with and without candidates.
func TestAnnotateMatchesQuadratic(t *testing.T) {
	vars := []interp.VarID{
		{Kind: interp.VGlobal, Name: "a"},
		{Kind: interp.VGlobal, Name: "b"},
		{Kind: interp.VArrayElem, Name: "c", Idx: 1},
		{Kind: interp.VArrayElem, Name: "c", Idx: 2},
	}
	for seed := range 2000 {
		rng := rand.New(rand.NewSource(int64(seed)))
		threads := 1 + rng.Intn(4)
		steps := 1 + rng.Intn(40)
		cands := make([]Candidate, rng.Intn(25))
		for i := range cands {
			cands[i] = Candidate{ID: i, Thread: rng.Intn(threads), Seq: rng.Intn(5), Step: int64(rng.Intn(steps))}
		}
		accs := make([]slicing.Access, rng.Intn(60))
		for i := range accs {
			accs[i] = slicing.Access{
				Step:     int64(rng.Intn(steps + 5)),
				Thread:   rng.Intn(threads + 1),
				Var:      vars[rng.Intn(len(vars))],
				IsWrite:  rng.Intn(2) == 0,
				Priority: rng.Intn(8),
			}
		}
		if err := CompareAnnotate(cands, accs); err != nil {
			t.Fatalf("seed %d (%d candidates, %d accesses): %v", seed, len(cands), len(accs), err)
		}
	}
}
