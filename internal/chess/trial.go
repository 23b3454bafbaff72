package chess

import (
	"heisendump/internal/interp"
	"heisendump/internal/ir"
)

// trialResult is the outcome of one test run of one combination under
// one thread-choice vector.
type trialResult struct {
	found        bool
	steps        int64
	choiceCounts []int
	applied      []AppliedPreemption
}

// comboOutcome summarizes the exploration of one combination: the
// odometer walk over its thread-choice vectors. foundAt is the 0-based
// trial index whose run reproduced the failure, or -1. aborted marks
// an exploration abandoned before completion (the search was decided,
// out-ranked, or cancelled mid-walk); the fold must never consume an
// aborted outcome, because it is not a pure function of the
// combination.
type comboOutcome struct {
	rank     int
	trials   int
	foundAt  int
	schedule []AppliedPreemption
	aborted  bool
}

// runTrial is the pure trial executor: it rewinds the caller's machine
// to the initial state (Machine.Reset — same program, same seed input,
// recycled storage) and executes one test run — a cooperative
// deterministic schedule with the combination's preemptions injected,
// switching at each fired preemption to the thread selected by the
// choice vector. It mutates nothing on the Searcher, so any number of
// trials may run concurrently as long as each worker owns its machine.
func (s *Searcher) runTrial(m *interp.Machine, combo []int, vec []int, maxRun int64) trialResult {
	m.Reset(m.Prog, m.SeedInput())
	m.Hooks = nil
	out := trialResult{choiceCounts: make([]int, len(combo))}

	fired := make([]bool, len(combo))
	// completed counts sync ops completed per thread id; thread ids are
	// dense creation-order so a slice (grown on demand as spawns land)
	// replaces the per-step map the trial loop used to pay for.
	completed := make([]int, 1, 8)
	completedOf := func(tid int) int {
		if tid < len(completed) {
			return completed[tid]
		}
		return 0
	}
	cur := 0 // current thread id

	pickLowest := func() int {
		r := m.Runnable()
		if len(r) == 0 {
			return -1
		}
		return r[0]
	}

	// eligibleChoices lists the threads that may be scheduled at a
	// fired preemption, per the guided or exhaustive policy.
	eligibleChoices := func(c *Candidate) []int {
		var choices []int
		blockVars := c.AccessVars()
		for _, t := range m.Threads {
			if t.ID == c.Thread {
				continue
			}
			if t.Status == interp.Done {
				continue
			}
			if t.Status == interp.Blocked && m.Locks[t.WaitLock] != -1 {
				// Still blocked; switching to it cannot run it.
				continue
			}
			if s.Opts.Guided {
				// Algorithm 2 preempt(): switch to T only when T's
				// future CSV set overlaps the preempted block's
				// accesses.
				overlap := false
				for v := range s.futureCSVsOf(t.ID, completedOf(t.ID)) {
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

	// firePreemption handles a matched candidate: consult the choice
	// vector and switch threads. Returns true when a switch happened.
	firePreemption := func(ci int) bool {
		c := &s.Candidates[combo[ci]]
		choices := eligibleChoices(c)
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

	for !m.Crashed() && !m.Done() && m.TotalSteps < maxRun {
		t := m.Threads[cur]
		if t.Status == interp.Done || (t.Status == interp.Blocked && m.Locks[t.WaitLock] != -1) {
			next := pickLowest()
			if next < 0 {
				break // deadlock
			}
			cur = next
			continue
		}

		// Preemption points that fire before the next instruction. The
		// instruction is fetched once; the point checks mutate nothing,
		// so it stays current across them.
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

		// Sync instructions step singly — their completion feeds the
		// preemption-point bookkeeping right after. Everything else runs
		// as a burst: the machine executes straight-line work up to the
		// next sync boundary (or block/finish/fault/budget) without
		// returning control, which removes this loop's per-step
		// re-inspection from the trial hot path. A burst completes no
		// sync ops by construction, so the bookkeeping below is
		// untouched by it.
		var ok bool
		var err error
		if wasAcquire || wasRelease {
			ok, err = m.Step(cur)
		} else {
			ok, err = m.RunBurst(cur, maxRun)
		}
		if err != nil || !ok {
			if t.Status == interp.Blocked {
				continue // re-dispatch
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
	out.found = m.Crashed() && s.Target.Matches(m.Crash)
	return out
}

// futureCSVsOf approximates thread tid's future CSV set at its current
// sync ordinal using the passing-run annotations: the future set of
// the thread's candidate at or after that ordinal.
func (s *Searcher) futureCSVsOf(tid, ordinal int) map[interp.VarID]bool {
	var best *Candidate
	for i := range s.Candidates {
		c := &s.Candidates[i]
		if c.Thread != tid || c.Seq < ordinal {
			continue
		}
		if best == nil || c.Seq < best.Seq || (c.Seq == best.Seq && c.Step < best.Step) {
			best = c
		}
	}
	if best == nil {
		return nil
	}
	return best.FutureCSVs
}
