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

// refAnnotation is one candidate's annotations as the quadratic
// reference computes them: its block and its future set, keyed by
// variable.
type refAnnotation struct {
	accesses []slicing.Access
	future   map[interp.VarID]bool
}

// annotateQuadratic is the reference Annotate: for each candidate, a
// scan of every candidate for its thread's next step and a scan of
// every access for its block and future set.
func annotateQuadratic(cands []Candidate, accesses []slicing.Access) []refAnnotation {
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
	out := make([]refAnnotation, len(cands))
	for i := range cands {
		c := &cands[i]
		out[i].future = map[interp.VarID]bool{}
		for _, a := range accesses {
			if a.Thread != c.Thread {
				continue
			}
			if a.Step >= c.Step {
				out[i].future[a.Var] = true
				if a.Step < nextStep[i] {
					out[i].accesses = append(out[i].accesses, a)
				}
			}
		}
	}
	return out
}

// accessVars returns the set of variables accessed in c's block.
func accessVars(c *Candidate) map[interp.VarID]bool {
	out := map[interp.VarID]bool{}
	for _, a := range c.Accesses {
		out[a.Var] = true
	}
	return out
}

// resolve returns the variables of a CSV set, given the CSV list its
// indexes refer to, or an error for an index past the list.
func resolve(s CSVSet, csvs []interp.VarID) (map[interp.VarID]bool, error) {
	out := map[interp.VarID]bool{}
	for i := range 64 * len(s) {
		if !s.Has(i) {
			continue
		}
		if i >= len(csvs) {
			return nil, fmt.Errorf("CSV %d set, past the %d CSVs", i, len(csvs))
		}
		out[csvs[i]] = true
	}
	return out, nil
}

// CompareAnnotate annotates copies of cands with Annotate and with the
// quadratic reference, each over its own copy of accesses, and reports
// the first difference: in a candidate's block, in its future set or
// block set resolved to variables through csvs (the CSV list the
// accesses' CSV indexes refer to), in the sorted accesses, or two
// candidates whose sets share storage. Exported for the
// external-package test over the Table 2 candidates.
func CompareAnnotate(cands []Candidate, accesses []slicing.Access, csvs []interp.VarID) error {
	got := unannotated(cands)
	gotAccs, wantAccs := append([]slicing.Access(nil), accesses...), append([]slicing.Access(nil), accesses...)
	Annotate(got, gotAccs)
	want := annotateQuadratic(unannotated(cands), wantAccs)
	if !reflect.DeepEqual(gotAccs, wantAccs) {
		return fmt.Errorf("sorted accesses differ:\n  got  %v\n  want %v", gotAccs, wantAccs)
	}
	seen := map[*uint64]int{}
	for i := range want {
		c := &got[i]
		if !reflect.DeepEqual(c.Accesses, want[i].accesses) {
			return fmt.Errorf("candidate %d's block:\n  got  %+v\n  want %+v", i, c.Accesses, want[i].accesses)
		}
		future, err := resolve(c.FutureCSVs, csvs)
		if err != nil {
			return fmt.Errorf("candidate %d's future set: %v", i, err)
		}
		if !reflect.DeepEqual(future, want[i].future) {
			return fmt.Errorf("candidate %d's future set:\n  got  %v\n  want %v", i, future, want[i].future)
		}
		block, err := resolve(c.block, csvs)
		if err != nil {
			return fmt.Errorf("candidate %d's block set: %v", i, err)
		}
		if wantBlock := accessVars(&Candidate{Accesses: want[i].accesses}); !reflect.DeepEqual(block, wantBlock) {
			return fmt.Errorf("candidate %d's block set:\n  got  %v\n  want %v", i, block, wantBlock)
		}
		for _, s := range []CSVSet{c.FutureCSVs, c.block} {
			if len(s) == 0 {
				continue
			}
			if j, ok := seen[&s[0]]; ok {
				return fmt.Errorf("candidates %d and %d share a CSV set", j, i)
			}
			seen[&s[0]] = i
		}
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
// threads with and without candidates. A third of the sets draw from 4
// CSVs, a third from 70 and a third from 150, so future and block sets
// span one, two and three words.
func TestAnnotateMatchesQuadratic(t *testing.T) {
	for seed := range 2000 {
		rng := rand.New(rand.NewSource(int64(seed)))
		vars := make([]interp.VarID, []int{4, 70, 150}[seed%3])
		for i := range vars {
			vars[i] = interp.VarID{Kind: interp.VArrayElem, Slot: 2, Idx: int64(i)}
		}
		vars[0] = interp.VarID{Kind: interp.VGlobal, Slot: 0}
		threads := 1 + rng.Intn(4)
		steps := 1 + rng.Intn(40)
		cands := make([]Candidate, rng.Intn(25))
		for i := range cands {
			cands[i] = Candidate{ID: i, Thread: rng.Intn(threads), Seq: rng.Intn(5), Step: int64(rng.Intn(steps))}
		}
		accs := make([]slicing.Access, rng.Intn(60))
		for i := range accs {
			csv := rng.Intn(len(vars))
			accs[i] = slicing.Access{
				Step:     int64(rng.Intn(steps + 5)),
				Thread:   rng.Intn(threads + 1),
				Var:      vars[csv],
				IsWrite:  rng.Intn(2) == 0,
				Priority: rng.Intn(8),
				CSV:      csv,
			}
		}
		if err := CompareAnnotate(cands, accs, vars); err != nil {
			t.Fatalf("seed %d (%d candidates, %d accesses, %d CSVs): %v", seed, len(cands), len(accs), len(vars), err)
		}
	}
}

// TestCSVSets checks Has and overlaps against sets of booleans on
// 2,000 seeded random pairs of one to four words, of equal and unequal
// lengths.
func TestCSVSets(t *testing.T) {
	for seed := range 2000 {
		rng := rand.New(rand.NewSource(int64(seed)))
		var sets [2]CSVSet
		var model [2][]bool
		for k := range sets {
			sets[k] = make(CSVSet, 1+rng.Intn(4))
			model[k] = make([]bool, 64*len(sets[k]))
			for range rng.Intn(12) {
				i := rng.Intn(len(model[k]))
				sets[k].add(i)
				model[k][i] = true
			}
		}
		overlap := false
		for i := range 64 * 5 {
			for k := range sets {
				if want := i < len(model[k]) && model[k][i]; sets[k].Has(i) != want {
					t.Fatalf("seed %d: set %d Has(%d) = %v", seed, k, i, !want)
				}
			}
			overlap = overlap || (sets[0].Has(i) && sets[1].Has(i))
		}
		if got := sets[0].overlaps(sets[1]); got != overlap {
			t.Fatalf("seed %d: %x overlaps %x = %v, want %v", seed, sets[0], sets[1], got, overlap)
		}
		if sets[0].Has(-1) || sets[0].Has(-64) {
			t.Fatalf("seed %d: %x has a negative index", seed, sets[0])
		}
		if got := sets[0].overlaps(nil); got {
			t.Fatalf("seed %d: %x overlaps the empty set", seed, sets[0])
		}
	}
}
