package chess

import (
	"fmt"
	"maps"
	"reflect"

	"heisendump/internal/coredump"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
)

// refRunTrial is the trial executor as it was before trials ran on the
// sched.Runner loop: its own loop over the machine, bursting between
// sync points and stepping sync instructions singly, with the lowest
// runnable thread and completion found by scanning every thread. It
// exists only as the oracle runTrial is checked against
// (TrialOracle); nothing outside tests runs it. Guided eligibility
// reads sets, its own variable-keyed future and block sets.
func (s *Searcher) refRunTrial(m *interp.Machine, sets *refSets, combo []int, vec []int, maxRun int64) trialResult {
	m.Reset(m.Prog, m.SeedInput())
	m.Hooks = nil
	out := trialResult{choiceCounts: make([]int, len(combo))}

	fired := make([]bool, len(combo))
	completed := make([]int, 1, 8)
	completedOf := func(tid int) int {
		if tid < len(completed) {
			return completed[tid]
		}
		return 0
	}
	cur := 0

	runnable := func(t *interp.Thread) bool {
		return t.Status == interp.Runnable || (t.Status == interp.Blocked && m.Locks[t.WaitLock] == -1)
	}
	pickLowest := func() int {
		for _, t := range m.Threads {
			if runnable(t) {
				return t.ID
			}
		}
		return -1
	}
	done := func() bool {
		for _, t := range m.Threads {
			if t.Status != interp.Done {
				return false
			}
		}
		return true
	}

	eligibleChoices := func(cidx int) []int {
		c := &s.Candidates[cidx]
		var choices []int
		blockVars := sets.block[cidx]
		for _, t := range m.Threads {
			if t.ID == c.Thread {
				continue
			}
			if t.Status == interp.Done {
				continue
			}
			if t.Status == interp.Blocked && m.Locks[t.WaitLock] != -1 {
				continue
			}
			if s.Opts.Guided {
				overlap := false
				for v := range sets.futureOf(s.Candidates, t.ID, completedOf(t.ID)) {
					if blockVars[v] {
						overlap = true
						break
					}
				}
				if !overlap {
					continue
				}
			}
			choices = append(choices, t.ID)
		}
		return choices
	}

	firePreemption := func(ci int) bool {
		c := &s.Candidates[combo[ci]]
		choices := eligibleChoices(combo[ci])
		out.choiceCounts[ci] = len(choices)
		if len(choices) == 0 {
			return false
		}
		pick := vec[ci]
		if pick >= len(choices) {
			pick = len(choices) - 1
		}
		fired[ci] = true
		out.applied = append(out.applied, AppliedPreemption{Candidate: *c, SwitchTo: choices[pick]})
		cur = choices[pick]
		return true
	}

	matchCandidate := func(tid int, kind PointKind, seq int) int {
		for i, cidx := range combo {
			if fired[i] {
				continue
			}
			c := &s.Candidates[cidx]
			if c.Thread == tid && c.Kind == kind && c.Seq == seq {
				return i
			}
		}
		return -1
	}

	for m.Crash == nil && !done() && m.TotalSteps < maxRun {
		t := m.Threads[cur]
		if t.Status == interp.Done || (t.Status == interp.Blocked && m.Locks[t.WaitLock] != -1) {
			next := pickLowest()
			if next < 0 {
				break // deadlock
			}
			cur = next
			continue
		}

		wasAcquire, wasRelease := false, false
		if fr := t.Top(); fr != nil {
			in := &m.Prog.Funcs[fr.FuncIdx].Instrs[fr.PC]
			wasAcquire = in.Op == ir.OpAcquire && m.Locks[in.Lock] == -1
			wasRelease = in.Op == ir.OpRelease
			if t.Steps == 0 {
				if ci := matchCandidate(cur, ThreadStart, 0); ci >= 0 {
					if firePreemption(ci) {
						continue
					}
				}
			}
			if wasAcquire {
				if ci := matchCandidate(cur, BeforeAcquire, completedOf(cur)); ci >= 0 {
					if firePreemption(ci) {
						continue
					}
				}
			}
		}

		var ok bool
		var err error
		if wasAcquire || wasRelease {
			ok, err = m.Step(cur)
		} else {
			ok, err = m.RunBurst(cur, maxRun, 0)
		}
		if err != nil || !ok {
			if t.Status == interp.Blocked {
				continue
			}
			break
		}
		if wasAcquire || wasRelease {
			for len(completed) <= cur {
				completed = append(completed, 0)
			}
			completed[cur]++
		}
		if wasRelease {
			if ci := matchCandidate(cur, AfterRelease, completed[cur]); ci >= 0 {
				if firePreemption(ci) {
					continue
				}
			}
		}
	}

	out.steps = m.TotalSteps
	out.found = m.Crash != nil && s.Target.Matches(m.Crash)
	return out
}

// refSets are the reference executor's guided-eligibility sets, keyed
// by variable and built from the annotated candidates' blocks alone:
// each candidate's block set, and its future set, the variables of the
// blocks of its thread's candidates at or after its step.
type refSets struct {
	block, future []map[interp.VarID]bool
}

func newRefSets(cands []Candidate) *refSets {
	sets := &refSets{}
	for i := range cands {
		c := &cands[i]
		future := map[interp.VarID]bool{}
		for j := range cands {
			if o := &cands[j]; o.Thread == c.Thread && o.Step >= c.Step {
				maps.Copy(future, accessVars(o))
			}
		}
		sets.block = append(sets.block, accessVars(c))
		sets.future = append(sets.future, future)
	}
	return sets
}

// futureOf is thread tid's future set at its sync ordinal: that of its
// first candidate, by sequence number and then step, at or after the
// ordinal; nil when there is none.
func (r *refSets) futureOf(cands []Candidate, tid, ordinal int) map[interp.VarID]bool {
	best := -1
	for i := range cands {
		c := &cands[i]
		if c.Thread != tid || c.Seq < ordinal {
			continue
		}
		if best < 0 || c.Seq < cands[best].Seq || (c.Seq == cands[best].Seq && c.Step < cands[best].Step) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return r.future[best]
}

// TrialOracle walks the first ranks of s's worklist the way a search
// explores them — every thread-choice vector of the odometer, up to
// trialsPerRank, until a trial finds the target — and runs each trial
// both with runTrial and with the reference executor, under the
// search's own per-run bound and under each of extraBounds. It returns
// the number of trial pairs compared and a description of the first
// difference in the trial result (found, steps, choice counts, applied
// preemptions) or the final machine state, or "" when all agree.
func TrialOracle(s *Searcher, ranks, trialsPerRank int, extraBounds []int64) (int, string) {
	bound := s.Opts.Bound
	if bound <= 0 {
		bound = 2
	}
	maxRun := s.runBound()
	wl := newWorklist(s.Candidates, bound, s.Opts.Weighted, s.Opts.Static)
	got, want := s.NewMachine(), s.NewMachine()
	sets := newRefSets(s.Candidates)
	c := trialChooser{future: newFutureIndex(s.Candidates)}
	pairs := 0
	for r := 0; r < wl.size && r < ranks; r++ {
		combo := wl.at(r)
		for _, run := range append([]int64{maxRun}, extraBounds...) {
			vec := make([]int, len(combo))
			for trial := 0; trial < trialsPerRank; trial++ {
				g := s.runTrial(got, &c, combo, vec, run)
				w := s.refRunTrial(want, sets, combo, vec, run)
				pairs++
				where := fmt.Sprintf("rank %d combo %v vec %v bound %d", r, combo, vec, run)
				if g.found != w.found || g.steps != w.steps ||
					!reflect.DeepEqual(g.choiceCounts, w.choiceCounts) || !reflect.DeepEqual(g.applied, w.applied) {
					return pairs, fmt.Sprintf("%s: trial found=%v steps=%d counts=%v applied=%d, reference found=%v steps=%d counts=%v applied=%d",
						where, g.found, g.steps, g.choiceCounts, len(g.applied), w.found, w.steps, w.choiceCounts, len(w.applied))
				}
				if !reflect.DeepEqual(coredump.Capture(got, 0, ir.PC{}, "oracle"), coredump.Capture(want, 0, ir.PC{}, "oracle")) {
					return pairs, where + ": final machine state differs"
				}
				if w.found {
					break
				}
				pos := len(vec) - 1
				for pos >= 0 {
					limit := max(w.choiceCounts[pos], 1)
					if vec[pos]+1 < limit {
						vec[pos]++
						break
					}
					vec[pos] = 0
					pos--
				}
				if pos < 0 {
					break
				}
			}
		}
	}
	return pairs, ""
}
