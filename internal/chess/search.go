package chess

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/telemetry"
)

// FailureSignature identifies the failure being reproduced: a test run
// reproduces it when it crashes at the same PC for the same reason.
type FailureSignature struct {
	PC     ir.PC
	Reason string
}

// Matches reports whether a crash matches the signature.
func (s FailureSignature) Matches(c *interp.CrashInfo) bool {
	return c != nil && c.PC == s.PC && c.Reason == s.Reason
}

// Options configures a search.
type Options struct {
	// Bound is the preemption bound k; the paper uses 2.
	Bound int
	// Weighted sorts combinations by CSV-access weight (the enhanced
	// algorithm); unweighted search tries combinations in execution
	// order (the original CHESS).
	Weighted bool
	// Guided restricts thread selection at a preemption to threads
	// whose future CSV set overlaps the preempted block's accesses
	// (Algorithm 2's preempt()); unguided selection tries every other
	// runnable thread.
	Guided bool
	// Static, when non-nil, is the static-analysis focus set: the slots
	// of the locations whose base names (global, array, local or field
	// names) the lockset analyzer flagged in race candidates
	// (NewFocus over statics.Report.FocusSet). Combinations whose
	// candidate blocks access flagged variables are explored first,
	// composing with — and ranking above — the Weighted CSV ordering.
	// The reordering changes Tries (that is its point); for any fixed
	// Static value, Found/Schedule/Tries remain bit-identical across
	// Workers. nil leaves the exploration order exactly as without
	// static guidance.
	Static *Focus
	// MaxTries cuts the search off after this many test runs (the
	// analogue of the paper's 18-hour cutoff). Zero means unlimited.
	// The cutoff is applied to the deterministic sequential order, so
	// Found/Schedule/Tries do not depend on Workers.
	MaxTries int
	// PassingSteps is the passing run's length, from which each test
	// run's step bound is derived.
	PassingSteps int64
	// Workers is the number of goroutines exploring combinations
	// concurrently; <= 0 means GOMAXPROCS. Any value yields the same
	// Found, Schedule and Tries (see Result).
	Workers int
	// Observers each receive one KindFold event per rank the
	// deterministic fold commits, carrying that rank's summary, plus a
	// final heartbeat with Done set; see telemetry.Event for the
	// delivery contract. They are strictly observational: the
	// determinism contract is pinned with observers attached and
	// detached. Cancelling the SearchContext context from a fold event
	// is the intended way to implement deterministic cutoffs (stop once
	// the folded Tries reach a budget).
	Observers telemetry.Observers
}

// AppliedPreemption records one preemption of a successful schedule.
type AppliedPreemption struct {
	Candidate Candidate
	// SwitchTo is the thread scheduled after the preemption.
	SwitchTo int
}

// Result summarizes a search.
type Result struct {
	// Found is true when a failure-inducing schedule was constructed.
	// Deterministic for any worker count.
	Found bool
	// Schedule is the successful preemption set. Deterministic for any
	// worker count: the winning schedule is the one with the lowest
	// worklist rank, regardless of which worker finishes first.
	Schedule []AppliedPreemption
	// Tries counts the test runs of the equivalent sequential search —
	// the runs a single worker would have executed before finding the
	// schedule (or hitting the cutoff). Deterministic for any worker
	// count and never above MaxTries.
	Tries int
	// TrialsExecuted counts every test run actually executed,
	// including speculative runs of combinations that a concurrent
	// lower-rank find or the cutoff later disqualified. Equal to Tries
	// when Workers is 1.
	TrialsExecuted int
	// Elapsed is the search's wall time from entry to return: building
	// the worklist (sorting the candidates when the order is weighted or
	// statically focused), producing its order as far as ranks are
	// claimed, and executing the test runs.
	Elapsed time.Duration
	// StepsExecuted totals interpreter steps across all executed test
	// runs (including speculative ones), so like TrialsExecuted it is
	// deterministic only at Workers == 1.
	StepsExecuted int64
	// CombinationsGenerated is the worklist size: every preemption
	// combination up to the bound, Σ C(n,s) for 1 ≤ s ≤ Bound over n
	// candidates, whether or not the search reached it. It saturates at
	// math.MaxInt when the sum does not fit in an int.
	CombinationsGenerated int
	// Workers is the worker count the search ran with.
	Workers int
	// Cancelled is true when the search's context was cancelled before
	// the worklist was decided: the result is then the best-so-far
	// deterministic prefix — Found, Schedule and Tries cover exactly
	// the ranks the fold committed before cancellation, folded in the
	// same rank order an uncancelled search uses, so a cancellation
	// triggered at a deterministic point (e.g. from a fold event when
	// Tries reaches a budget) yields a bit-identical partial
	// result for any worker count.
	Cancelled bool
}

// Searcher drives the schedule search. NewMachine must build a fresh
// machine on the same program and input; the search calls it once per
// worker (not per trial — each worker rewinds its machine with
// Machine.Reset between test runs) from multiple goroutines when
// Workers > 1, so it must be safe for concurrent use (share only the
// immutable compiled program and clone any mutable input).
type Searcher struct {
	NewMachine func() *interp.Machine
	Candidates []Candidate
	Target     FailureSignature
	Opts       Options
}

// searchState is the shared state of one parallel search: the
// on-demand worklist, the atomic work-claim and progress counters, and
// the incremental rank-order fold that decides the deterministic
// result.
type searchState struct {
	s        *Searcher
	ctx      context.Context
	wl       *worklist
	maxRun   int64
	maxTries int
	future   futureIndex // guided eligibility's index, nil when unguided

	next     atomic.Int64 // next worklist rank to claim
	tries    atomic.Int64 // test runs executed (raw, incl. speculation)
	steps    atomic.Int64 // interpreter steps executed
	bestRank atomic.Int64 // lowest rank whose combination found the target
	decided  atomic.Bool  // the fold reached a winner or the cutoff

	// mu guards the fold state below. outcomes grows as record
	// publishes ranks; each slot is written once, by the worker that
	// explored the rank, and a frontier rank beyond its length is still
	// in flight.
	mu        sync.Mutex
	outcomes  []*comboOutcome
	committed int           // next rank the fold will consume
	cumTries  int           // sequential-equivalent tries folded so far
	winner    *comboOutcome // committed winning outcome, if any
}

// SearchContext runs Algorithm 2: order the preemption combinations
// up to the bound (by weight for the enhanced algorithm, by generation
// order for plain CHESS) into a worklist that yields them on demand,
// and execute test runs — exploring the eligible thread choices at
// each preemption — until the failure reproduces or the work list is
// exhausted.
//
// Combinations are explored by Opts.Workers concurrent workers that
// claim worklist ranks in order: worker 0 on the calling goroutine and
// the others on goroutines of their own, which SearchContext waits for
// before it returns. The result is reduced
// deterministically: outcomes are folded in rank order, the cutoff is
// applied to that order, and the winning schedule is the find with the
// lowest rank — so Found, Schedule and Tries are bit-identical for any
// worker count.
//
// The context is polled between trials (cancellation granularity is
// one test run) by every worker and by the rank-order fold. On
// cancellation the search stops claiming and folding work and returns
// the best-so-far deterministic prefix with Result.Cancelled set — all
// completed work is still reduced in rank order, so a cancellation
// triggered at a deterministic fold point (see Options.Observers)
// yields a bit-identical partial result for any worker count.
func (s *Searcher) SearchContext(ctx context.Context) *Result {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{}
	telemetry.ChessSearches.Inc()
	start := time.Now()                                //lintgate:allow wallclock — Elapsed is diagnostic wall time, excluded from the determinism contract
	defer func() { res.Elapsed = time.Since(start) }() //lintgate:allow wallclock — Elapsed is diagnostic wall time, excluded from the determinism contract

	bound := s.Opts.Bound
	if bound <= 0 {
		bound = 2
	}
	wl := newWorklist(s.Candidates, bound, s.Opts.Weighted, s.Opts.Static)
	res.CombinationsGenerated = wl.size

	workers := s.Opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > wl.size {
		workers = wl.size
	}
	res.Workers = workers
	if wl.size == 0 {
		s.emitDone(res, 0)
		return res
	}

	st := &searchState{
		s:        s,
		ctx:      ctx,
		wl:       wl,
		maxRun:   s.runBound(),
		maxTries: s.Opts.MaxTries,
	}
	if s.Opts.Guided {
		st.future = newFutureIndex(s.Candidates)
	}
	st.bestRank.Store(int64(wl.size)) // sentinel: nothing found yet

	// Worker 0 runs on this goroutine, so the first trial starts
	// without a goroutine wake-up and a one-worker search starts none.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.worker(w)
		}()
	}
	st.worker(0)
	wg.Wait()

	st.mu.Lock()
	if st.winner != nil {
		res.Found = true
		res.Schedule = st.winner.schedule
	}
	res.Tries = st.cumTries
	committed := st.committed
	// Workers stop claiming only when the search is cancelled, decided
	// or drained, or when the raw trials reach the budget, and they
	// explore every rank they claim unless the fold can never need it.
	// Each explored rank folds as min(its trials, the remaining
	// budget), so raw trials at the budget leave the fold decided too.
	// A search the fold has neither decided (winner or cutoff) nor
	// consumed whole was therefore cancelled.
	complete := st.decided.Load() || st.committed >= st.wl.size
	st.mu.Unlock()
	res.Cancelled = !complete
	res.TrialsExecuted = int(st.tries.Load())
	res.StepsExecuted = st.steps.Load()
	if res.Found {
		telemetry.ChessSearchesFound.Inc()
	}
	s.emitDone(res, committed)
	return res
}

// emitDone publishes the final fold heartbeat for a finished (or
// cancelled, or trivially empty) search.
func (s *Searcher) emitDone(res *Result, committed int) {
	if len(s.Opts.Observers) == 0 {
		return
	}
	s.Opts.Observers.Observe(telemetry.Event{Kind: telemetry.KindFold, Progress: telemetry.Progress{
		Combos:    res.CombinationsGenerated,
		Committed: committed,
		Tries:     res.Tries,
		Executed:  res.TrialsExecuted,
		Steps:     res.StepsExecuted,
		Found:     res.Found,
		Done:      true,
		Cancelled: res.Cancelled,
	}})
}

// cancelled reports whether the search's context has been cancelled.
func (st *searchState) cancelled() bool {
	return st.ctx.Err() != nil
}

// worker claims worklist ranks in order and explores each combination.
// Every stop that does not depend on the rank comes before the claim:
// the context is cancelled, the fold has decided the search (winner
// committed or cutoff reached), or the executed-trial count has reached
// the cutoff budget. The last is a speculation throttle; because every
// claimed rank the fold can need is explored and folds as min(its
// trials, the remaining budget), raw trials at the budget carry the
// fold to its decision. A claimed rank goes unexplored only when the
// worklist is drained, a lower-rank combination has already found the
// target (higher ranks cannot win: either that find commits, or the
// cutoff lands at or before it), or the folded prefix has spent the
// budget. The fold needs none of those ranks, so it never waits on a
// rank nobody explores. Worker 0 is the goroutine that called
// SearchContext; workers 1 and up run on goroutines it started.
func (st *searchState) worker(w int) {
	// Each worker owns one machine and one trial chooser for its whole
	// claim stream: runTrial rewinds the machine with Machine.Reset, so
	// the millions of re-executions recycle frames, threads and heap
	// objects instead of rebuilding them per trial. Built lazily so a
	// worker that never claims a rank costs nothing. w identifies the
	// worker to the telemetry layer (its counter shard and event
	// attribution); it never influences the search.
	var m *interp.Machine
	c := trialChooser{future: st.future}
	for {
		if st.cancelled() || st.decided.Load() {
			return
		}
		if st.maxTries > 0 && int(st.tries.Load()) >= st.maxTries {
			return
		}
		r := int(st.next.Add(1) - 1)
		if r >= st.wl.size {
			return
		}
		if int(st.bestRank.Load()) < r {
			return
		}
		// Cap this rank's exploration by the budget not yet consumed by
		// the folded prefix. The fold only ever consumes ranks below r
		// before r itself, so the snapshot is a safe over-approximation
		// of r's final allowance — and with a single worker the fold is
		// always caught up, making the cap exact (TrialsExecuted then
		// equals Tries).
		cap := 0
		if st.maxTries > 0 {
			st.mu.Lock()
			cap = st.maxTries - st.cumTries
			st.mu.Unlock()
			if cap <= 0 {
				return // the fold has reached the cutoff
			}
		}
		if m == nil {
			m = st.s.NewMachine()
		}
		out := st.exploreCombo(r, cap, m, &c, w)
		if out.foundAt >= 0 {
			for {
				cur := st.bestRank.Load()
				if int64(r) >= cur || st.bestRank.CompareAndSwap(cur, int64(r)) {
					break
				}
			}
		}
		st.record(r, out)
	}
}

// record publishes rank r's outcome and advances the fold: consume
// completed outcomes in rank order, replaying the sequential search's
// semantics — accumulate each rank's trials against the cutoff budget
// and stop at the first rank whose find falls within its remaining
// allowance. Every outcome the fold consumes is a deterministic
// function of its combination alone (aborted explorations only exist
// at ranks past the decision point, which the fold never consumes), so
// the resulting Found/Schedule/Tries are independent of worker
// scheduling.
func (st *searchState) record(r int, out *comboOutcome) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.outcomes) <= r {
		st.outcomes = append(st.outcomes, nil)
	}
	st.outcomes[r] = out
	for !st.decided.Load() && st.committed < st.wl.size {
		if st.cancelled() {
			// Cancelled: stop folding and leave the committed prefix as
			// the deterministic partial result. The check sits before
			// each consume, so a fold observer that cancels the
			// context commits nothing past the rank it reacted to — for
			// any worker count.
			return
		}
		var cur *comboOutcome
		if st.committed < len(st.outcomes) {
			cur = st.outcomes[st.committed]
		}
		if cur == nil || cur.aborted {
			// The frontier rank is still in flight, or its exploration
			// was abandoned by the cancellation before completing (an
			// aborted outcome is not a pure function of its combination,
			// so the fold must never consume it).
			return
		}
		allowed := math.MaxInt
		if st.maxTries > 0 {
			allowed = st.maxTries - st.cumTries
			if allowed <= 0 {
				st.decided.Store(true)
				return
			}
		}
		// An exploration stops at its find, so a winner's trials are
		// foundAt+1, within the allowance.
		tries := min(cur.trials, allowed)
		found := cur.foundAt >= 0 && cur.foundAt < allowed
		if found {
			st.winner = cur
		}
		st.cumTries += tries
		st.committed++
		if found || st.maxTries > 0 && st.cumTries >= st.maxTries {
			st.decided.Store(true)
		}
		st.progressLocked(cur, tries, found)
	}
}

// progressLocked emits the fold event of the rank just committed,
// which added tries to the fold; st.mu must be held, which serializes
// the stream and makes every counter monotone across it.
func (st *searchState) progressLocked(out *comboOutcome, tries int, found bool) {
	if len(st.s.Opts.Observers) == 0 {
		return
	}
	st.s.Opts.Observers.Observe(telemetry.Event{
		Kind: telemetry.KindFold,
		Rank: telemetry.Rank{Rank: out.rank, Tries: tries, Steps: out.steps, Worker: out.worker, Found: found},
		Progress: telemetry.Progress{
			Combos:    st.wl.size,
			Committed: st.committed,
			Tries:     st.cumTries,
			Executed:  int(st.tries.Load()),
			Steps:     st.steps.Load(),
			Found:     st.winner != nil,
		},
	})
}

// exploreCombo executes test runs for the combination at rank r,
// enumerating the thread choices at each preemption with an odometer
// over the choice counts observed at run time. cap > 0 bounds the
// trials; callers pass a value that is at least this rank's
// deterministic trial allowance (the fold's cum only grows as ranks
// below r are consumed), so capped outcomes still fold exactly.
// Exploration aborts early when the search is already decided, when a
// lower-rank combination has found the target — in both cases this
// rank's outcome is past the decision point and the fold never
// consumes it — or when the context is cancelled, which also stops the
// fold before it could reach this rank. Aborted outcomes are marked so
// the fold can never mistake them for completed explorations.
func (st *searchState) exploreCombo(r, cap int, m *interp.Machine, c *trialChooser, w int) *comboOutcome {
	combo := st.wl.at(r)
	out := &comboOutcome{rank: r, worker: w, foundAt: -1}
	k := len(combo)
	vec := make([]int, k)
	for {
		if st.cancelled() {
			out.aborted = true
			return out // cancelled between trials
		}
		if st.decided.Load() || int(st.bestRank.Load()) < r {
			out.aborted = true
			return out // this rank cannot win; abandon speculation
		}
		if cap > 0 && out.trials >= cap {
			return out
		}
		tr := st.s.runTrial(m, c, combo, vec, st.maxRun)
		st.tries.Add(1)
		st.steps.Add(tr.steps)
		countTrial(w, &tr, m)
		out.trials++
		out.steps += tr.steps
		if tr.found {
			out.foundAt = out.trials - 1
			// The trial's log is the chooser's buffer; keep a copy.
			out.schedule = slices.Clone(tr.applied)
			return out
		}
		// Advance the odometer over observed choice counts. Positions
		// whose preemption never fired count one notch.
		pos := k - 1
		for pos >= 0 {
			limit := tr.choiceCounts[pos]
			if limit <= 0 {
				limit = 1
			}
			if vec[pos]+1 < limit {
				vec[pos]++
				break
			}
			vec[pos] = 0
			pos--
		}
		if pos < 0 {
			return out // odometer exhausted
		}
	}
}
