package chess

import (
	"heisendump/internal/interp"
	"heisendump/internal/sched"
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
// recycled storage) and executes one test run on the sched.Runner loop
// with c as the scheduler: a cooperative deterministic schedule with
// the combination's preemptions injected, switching at each fired
// preemption to the thread selected by the choice vector. It mutates
// nothing on the Searcher, so any number of trials may run
// concurrently as long as each worker owns its machine and chooser.
// The result's choiceCounts is the chooser's buffer, valid until the
// chooser's next trial; applied is the trial's own.
func (s *Searcher) runTrial(m *interp.Machine, c *trialChooser, combo []int, vec []int, maxRun int64) trialResult {
	m.Reset(m.Prog, m.SeedInput())
	m.Hooks = nil
	c.start(s, combo, vec)
	if maxRun <= 0 {
		maxRun = -1 // a non-positive bound runs nothing
	}
	sched.Runner{MaxSteps: maxRun}.Run(m, c)
	// The run can stop right after a sync instruction (the budget, or
	// the instruction faulted) without asking c again; its bookkeeping
	// still counts toward the choice counts and applied preemptions.
	if c.sync {
		c.settle(m)
	}
	return trialResult{
		found:        m.Crashed() && s.Target.Matches(m.Crash),
		steps:        m.TotalSteps,
		choiceCounts: c.counts,
		applied:      c.applied,
	}
}

// trialChooser is the schedule search's scheduler for one test run. As
// a sched.Chooser it is asked only at switch points, and there it does
// the trial's preemption bookkeeping: before a thread's first step it
// matches ThreadStart candidates, before a free acquire BeforeAcquire
// candidates, and after a release AfterRelease candidates; a matched
// candidate consults the choice vector and switches threads. Between
// switch points the Runner runs the current thread in bursts, which
// complete no sync operation, so the bookkeeping is untouched by them.
// A worker reuses one chooser for all its trials.
type trialChooser struct {
	s     *Searcher
	combo []int
	vec   []int

	// counts and applied are the trial's choice counts and applied
	// preemptions (see trialResult).
	counts  []int
	applied []AppliedPreemption

	fired []bool
	// completed counts sync ops completed per thread id; thread ids are
	// dense creation-order, so a slice grown on demand as spawns land
	// replaces a per-step map.
	completed []int
	choices   []int
	cur       int // current thread id

	// sync marks that the last choice runs a free acquire or a release
	// (a one-step burst) whose completion settle must count; release
	// says which, and at is the machine's step count before it ran.
	sync    bool
	release bool
	at      int64
}

// start prepares c for one trial of combo under vec.
func (c *trialChooser) start(s *Searcher, combo, vec []int) {
	c.s, c.combo, c.vec = s, combo, vec
	if cap(c.fired) < len(combo) {
		c.fired = make([]bool, len(combo))
		c.counts = make([]int, len(combo))
	}
	c.fired = c.fired[:len(combo)]
	clear(c.fired)
	c.counts = c.counts[:len(combo)]
	clear(c.counts)
	c.applied = nil
	c.completed = append(c.completed[:0], 0)
	c.cur = 0
	c.sync = false
}

// SwitchPointsOnly implements sched.Chooser.
func (c *trialChooser) SwitchPointsOnly() {}

// Next implements sched.Scheduler: it settles the sync operation the
// previous choice ran, then picks the thread to run from here — the
// current one unless it blocked or finished (then the lowest runnable
// thread) or a matched preemption switched away from it.
func (c *trialChooser) Next(m *interp.Machine) int {
	if c.sync {
		c.settle(m)
	}
	for {
		t := m.Threads[c.cur]
		if t.Status == interp.Done || (t.Status == interp.Blocked && m.Locks[t.WaitLock] != -1) {
			r := m.Runnable()
			if len(r) == 0 {
				return -1 // deadlock
			}
			c.cur = r[0]
			continue
		}

		// Preemption points that fire before the next instruction. The
		// point checks mutate nothing, so the instruction stays current
		// across them.
		lock, acquire, release := t.SyncOp()
		acquire = acquire && m.Locks[lock] == -1
		if t.Steps == 0 {
			if ci := c.match(c.cur, ThreadStart, 0); ci >= 0 && c.fire(m, ci) {
				continue
			}
		}
		if acquire {
			if ci := c.match(c.cur, BeforeAcquire, c.completedOf(c.cur)); ci >= 0 && c.fire(m, ci) {
				continue
			}
		}
		c.sync, c.release, c.at = acquire || release, release, m.TotalSteps
		return c.cur
	}
}

// settle completes the bookkeeping of the sync operation the last
// choice ran (c.sync), if it ran: the thread's completed-op count,
// then the AfterRelease point.
func (c *trialChooser) settle(m *interp.Machine) {
	c.sync = false
	if m.TotalSteps == c.at {
		return // the step never executed (the machine's step limit)
	}
	for len(c.completed) <= c.cur {
		c.completed = append(c.completed, 0)
	}
	c.completed[c.cur]++
	if c.release {
		if ci := c.match(c.cur, AfterRelease, c.completed[c.cur]); ci >= 0 {
			c.fire(m, ci)
		}
	}
}

func (c *trialChooser) completedOf(tid int) int {
	if tid < len(c.completed) {
		return c.completed[tid]
	}
	return 0
}

// match returns the index within the combination of the unfired
// candidate at (tid, kind, seq), or -1.
func (c *trialChooser) match(tid int, kind PointKind, seq int) int {
	for i, cidx := range c.combo {
		if c.fired[i] {
			continue
		}
		cand := &c.s.Candidates[cidx]
		if cand.Thread == tid && cand.Kind == kind && cand.Seq == seq {
			return i
		}
	}
	return -1
}

// fire handles a matched candidate: consult the choice vector and
// switch threads. Returns true when a switch happened.
func (c *trialChooser) fire(m *interp.Machine, ci int) bool {
	cand := &c.s.Candidates[c.combo[ci]]
	choices := c.eligible(m, cand)
	c.counts[ci] = len(choices)
	if len(choices) == 0 {
		return false
	}
	pick := c.vec[ci]
	if pick >= len(choices) {
		pick = len(choices) - 1
	}
	c.fired[ci] = true
	c.applied = append(c.applied, AppliedPreemption{Candidate: *cand, SwitchTo: choices[pick]})
	c.cur = choices[pick]
	return true
}

// eligible lists the threads that may be scheduled at a fired
// preemption of cand, per the guided or exhaustive policy. The slice
// is reused by the next call.
func (c *trialChooser) eligible(m *interp.Machine, cand *Candidate) []int {
	choices := c.choices[:0]
	for _, t := range m.Threads {
		if t.ID == cand.Thread {
			continue
		}
		if t.Status == interp.Done {
			continue
		}
		if t.Status == interp.Blocked && m.Locks[t.WaitLock] != -1 {
			// Still blocked; switching to it cannot run it.
			continue
		}
		if c.s.Opts.Guided {
			// Algorithm 2 preempt(): switch to T only when T's future
			// CSV set overlaps the preempted block's accesses.
			future := c.s.futureCSVsOf(t.ID, c.completedOf(t.ID))
			overlap := false
			for _, a := range cand.Accesses {
				if future[a.Var] {
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
	c.choices = choices
	return choices
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
