package chess

import "testing"

// WarmTrialAllocs walks s's worklist in rank order and picks the first
// combination of k candidates whose first trial fires all k
// preemptions and runs every thread to completion, leaving at least
// minObjects heap objects and global scalar g non-zero (the caller's
// evidence that the trial made the calls it expects). It runs that
// trial once more to warm the machine and the chooser, then measures it
// with testing.AllocsPerRun. It returns the allocations per trial, the
// trial's applied preemptions and heap objects, and ok false when no
// rank of the first ranks qualifies.
func WarmTrialAllocs(s *Searcher, ranks, k, minObjects int, g string) (allocs float64, applied, objects int, ok bool) {
	bound := s.Opts.Bound
	if bound <= 0 {
		bound = 2
	}
	maxRun := s.runBound()
	wl := newWorklist(s.Candidates, bound, s.Opts.Weighted, s.Opts.Static)
	m := s.NewMachine()
	c := trialChooser{future: newFutureIndex(s.Candidates)}
	for r := 0; r < wl.size && r < ranks; r++ {
		combo := wl.at(r)
		if len(combo) != k {
			continue
		}
		vec := make([]int, k)
		tr := s.runTrial(m, &c, combo, vec, maxRun)
		if len(tr.applied) != k || m.Crashed() || !m.Done() || len(m.Heap) < minObjects || m.Global(g).Num == 0 {
			continue
		}
		s.runTrial(m, &c, combo, vec, maxRun)
		allocs = testing.AllocsPerRun(100, func() {
			tr = s.runTrial(m, &c, combo, vec, maxRun)
		})
		return allocs, len(tr.applied), len(m.Heap), true
	}
	return 0, 0, 0, false
}
