package chess

import (
	"cmp"
	"math"
	"slices"

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
// odometer walk over its thread-choice vectors, run by worker, which
// executed trials test runs of steps interpreter steps in all.
// foundAt is the 0-based trial index whose run reproduced the failure,
// or -1. aborted marks an exploration abandoned before completion (the
// search was decided, out-ranked, or cancelled mid-walk); the fold
// must never consume an aborted outcome, because it is not a pure
// function of the combination.
type comboOutcome struct {
	rank     int
	worker   int
	trials   int
	steps    int64
	foundAt  int
	schedule []AppliedPreemption
	aborted  bool
}

// runBound is each test run's step bound, derived from the passing
// run's length.
func (s *Searcher) runBound() int64 { return s.Opts.PassingSteps*4 + 10000 }

// runTrial is the pure trial executor: it rewinds the caller's machine
// to the initial state (Machine.Reset — same program, same seed input,
// recycled storage) and executes one test run on the sched.Runner loop
// with c as the scheduler: a cooperative deterministic schedule with
// the combination's preemptions injected, switching at each fired
// preemption to the thread selected by the choice vector. It mutates
// nothing on the Searcher, so any number of trials may run
// concurrently as long as each worker owns its machine and chooser.
// The result's choiceCounts and applied are the chooser's buffers,
// valid until the chooser's next trial; applied is nil when no
// preemption fired. A warm trial allocates nothing.
func (s *Searcher) runTrial(m *interp.Machine, c *trialChooser, combo []int, vec []int, maxRun int64) trialResult {
	m.Reset(m.Prog, m.SeedInput())
	m.Hooks = nil
	c.start(s, combo, vec)
	if maxRun <= 0 {
		maxRun = -1 // a non-positive bound runs nothing
	}
	sched.Runner{MaxSteps: maxRun}.Run(m, c)
	// The run can stop right after a release (the budget, or the
	// release faulted) without asking c again; its AfterRelease point
	// still counts toward the choice counts and applied preemptions.
	// A release c did settle is never the run's last step: Next returns
	// a runnable thread after one, and its burst clears Released.
	c.settle(m)
	res := trialResult{
		found:        m.Crashed() && s.Target.Matches(m.Crash),
		steps:        m.TotalSteps,
		choiceCounts: c.counts,
	}
	if len(c.applied) > 0 {
		res.applied = c.applied
	}
	return res
}

// trialChooser is the schedule search's scheduler for one test run. As
// a sched.Chooser it is asked only where a preemption of its
// combination can fire, and there it does the trial's preemption
// bookkeeping: before a thread's first step it matches ThreadStart
// candidates, before a free acquire BeforeAcquire candidates, and after
// a release AfterRelease candidates; a matched candidate consults the
// choice vector and switches threads. A candidate's Seq is its
// thread's completed-sync count (interp.Thread.Syncs) at the point, so
// the chooser's horizon keeps every burst short of the next point an
// unfired candidate can match at, and bursts run through every other
// sync operation. A worker reuses one chooser for all its trials.
type trialChooser struct {
	s     *Searcher
	combo []int
	vec   []int
	// future is the search's future-set index; guided eligibility
	// reads it.
	future futureIndex

	// counts and applied are the trial's choice counts and applied
	// preemptions (see trialResult).
	counts  []int
	applied []AppliedPreemption

	fired   []bool
	choices []int
	cur     int // current thread id
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
	c.applied = c.applied[:0]
	c.cur = 0
}

// Horizon implements sched.Chooser: the least completed-sync count of
// thread tid at which an unfired candidate of the combination can
// still match. A BeforeAcquire candidate matches before an acquire at
// its Seq, so it counts while Seq ≥ Syncs; an AfterRelease candidate
// matches after the release that brings Syncs to its Seq, so it counts
// while Seq > Syncs. ThreadStart candidates match before a thread's
// first step, which is always where a burst begins.
func (c *trialChooser) Horizon(m *interp.Machine, tid int) int {
	syncs := m.Threads[tid].Syncs
	h := math.MaxInt
	for i, cidx := range c.combo {
		cand := &c.s.Candidates[cidx]
		if c.fired[i] || cand.Thread != tid || cand.Seq >= h {
			continue
		}
		if (cand.Kind == BeforeAcquire && cand.Seq >= syncs) || (cand.Kind == AfterRelease && cand.Seq > syncs) {
			h = cand.Seq
		}
	}
	return h
}

// Next implements sched.Scheduler: it settles the release the previous
// burst may have ended on, then picks the thread to run from here —
// the current one unless it blocked or finished (then the lowest
// runnable thread) or a matched preemption switched away from it.
func (c *trialChooser) Next(m *interp.Machine) int {
	c.settle(m)
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
		if t.Steps == 0 {
			if ci := c.match(c.cur, ThreadStart, 0); ci >= 0 && c.fire(m, ci) {
				continue
			}
		}
		if lock, acquire, _ := t.SyncOp(); acquire && m.Locks[lock] == -1 {
			if ci := c.match(c.cur, BeforeAcquire, t.Syncs); ci >= 0 && c.fire(m, ci) {
				continue
			}
		}
		return c.cur
	}
}

// settle matches the AfterRelease point of the release the current
// thread's last burst ended on, if it ended on one.
func (c *trialChooser) settle(m *interp.Machine) {
	if !m.Released() {
		return
	}
	if ci := c.match(c.cur, AfterRelease, m.Threads[c.cur].Syncs); ci >= 0 {
		c.fire(m, ci)
	}
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
		if c.s.Opts.Guided && !c.future.at(t.ID, t.Syncs).overlaps(cand.block) {
			// Algorithm 2 preempt(): switch to T only when T's future
			// CSV set overlaps the preempted block's accesses.
			continue
		}
		choices = append(choices, t.ID)
	}
	c.choices = choices
	return choices
}

// futureIndex lists each thread's candidates, indexed by thread id, in
// (Seq, Step) order, so a thread's future CSV set at a sync ordinal is
// a binary search. It is built once per search and only read after.
type futureIndex [][]futureEntry

type futureEntry struct {
	seq  int
	step int64
	csvs CSVSet
}

func newFutureIndex(cands []Candidate) futureIndex {
	var idx futureIndex
	for i := range cands {
		c := &cands[i]
		for len(idx) <= c.Thread {
			idx = append(idx, nil)
		}
		idx[c.Thread] = append(idx[c.Thread], futureEntry{seq: c.Seq, step: c.Step, csvs: c.FutureCSVs})
	}
	for _, es := range idx {
		// Stable, so candidates tied on (Seq, Step) keep their order
		// and the first of them wins, as it would in a scan.
		slices.SortStableFunc(es, func(a, b futureEntry) int {
			return cmp.Or(cmp.Compare(a.seq, b.seq), cmp.Compare(a.step, b.step))
		})
	}
	return idx
}

// at approximates thread tid's future CSV set at its sync ordinal from
// the passing-run annotations: the future set of the thread's first
// candidate, by Seq and then Step, at or after that ordinal.
func (f futureIndex) at(tid, ordinal int) CSVSet {
	if tid >= len(f) {
		return nil
	}
	es := f[tid]
	i, _ := slices.BinarySearchFunc(es, ordinal, func(e futureEntry, seq int) int { return cmp.Compare(e.seq, seq) })
	if i == len(es) {
		return nil
	}
	return es[i].csvs
}
