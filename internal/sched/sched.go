// Package sched drives machine execution. It provides the schedulers —
// a cooperative deterministic single-core scheduler (the paper's
// re-execution environment) and a seeded pseudo-random scheduler
// simulating multicore interleaving (used to provoke failures during
// stress testing) — and the Runner, the one loop that every execution
// in the system runs on: stress attempts, alignment runs, the
// aligned-point replay, witness searches and reruns, the schedule
// search's trials and the interpreter probes.
//
// Every run bursts. A Chooser (the cooperative scheduler, the search's
// preemption chooser) switches only when the running thread blocks,
// finishes or faults, or at a sync operation, and for each thread it
// picks it names a horizon: the thread's completed-sync count below
// which it would not switch. The Runner runs the choice in one burst
// (interp.Machine.RunBurst) up to the horizon. The cooperative
// scheduler's horizon is unbounded, so it is asked once a thread
// blocks or finishes; the search's chooser is asked where a preemption
// of its combination can fire. The random scheduler may switch at
// every step: the Runner asks it once and the machine draws every
// later thread itself (interp.Machine.RunRandom), one step at a time.
// The Runner refuses any other scheduler, and a choice the machine
// cannot step, with Result.StepError. Bursts and random runs also stop
// at the Runner's step budget and at its context-poll boundaries, so a
// budgeted or cancelled run executes exactly the prefix a per-step
// loop would.
//
// No run records its schedule. A random run's seed fixes every step of
// it, so a caller that needs the interleaving reruns the seed under a
// trace.Recorder and reads the thread of each event.
//
// The random scheduler draws from interp.RNG, a copy of math/rand's
// default source: the same stream as rand.New(rand.NewSource(seed)),
// seeded without the source's serial seeding chain, and reseeded in
// place between stress attempts.
package sched

import (
	"context"
	"fmt"
	"math"
	"strings"

	"heisendump/internal/interp"
)

// Scheduler picks the next thread to step. A Runner runs a *Random or
// a Chooser and refuses any other Scheduler.
type Scheduler interface {
	// Next returns the id of the thread to step, chosen from the
	// machine's runnable set, or -1 to stop the run.
	Next(m *interp.Machine) int
}

// Chooser is a Scheduler that can switch threads only at switch
// points: at an acquire or release instruction and right after it,
// and when the running thread blocks, finishes or faults. Everywhere
// else its Next would return the thread that just ran. After each
// Next, the Runner asks Horizon how far the chosen thread may run and
// runs it in one burst (interp.Machine.RunBurst): through acquires and
// releases while the thread's completed-sync count (interp.Thread.Syncs)
// is below the horizon, and from the horizon on up to the next sync
// operation, so the Chooser sees the machine before and after each one
// from there. The burst also ends where the thread blocks, finishes or
// faults.
type Chooser interface {
	Scheduler
	// Horizon returns the completed-sync count of thread tid, just
	// chosen by Next, below which the Chooser would not switch away
	// from it at a sync operation. The Runner asks again right after
	// the operation that reaches it and before every sync instruction
	// from then on; math.MaxInt never asks at one, 0 asks at each.
	Horizon(m *interp.Machine, tid int) int
}

// Result summarizes a completed run.
type Result struct {
	// Crashed is true when the run faulted; Crash carries the details.
	Crashed bool
	Crash   *interp.CrashInfo
	// Deadlocked is true when unfinished threads remained but none was
	// runnable.
	Deadlocked bool
	// Steps is the machine's total instruction count when the run
	// stopped.
	Steps int64
	// Output is the run's output log.
	Output []int64
	// StepLimited is true when the run was cut off by a step bound —
	// the machine's MaxSteps limit, or the Runner's own budget (in
	// which case Budgeted is also set).
	StepLimited bool
	// Budgeted is true when the Runner's own MaxSteps budget (a
	// caller-chosen policy, e.g. BoundedRunContext's exact
	// dump-capture budget) cut the run, as opposed to the machine's
	// step limit (the livelock guard). Budgeted stops classify as
	// OutcomeStopped with a nil Err; machine-limit stops as
	// OutcomeStepLimited.
	Budgeted bool
	// Cancelled is true when the run was cut off by the Runner's
	// context.
	Cancelled bool
	// Finished is true when every thread returned from its entry
	// function — the run ran the program to completion.
	Finished bool
	// CancelCause records the Runner context's error when Cancelled is
	// set (context.Canceled or context.DeadlineExceeded), so Err
	// reports the actual cause.
	CancelCause error
	// StepError records what stopped the run other than a crash or a
	// step bound: an internal interpreter error (e.g. corrupted IR), a
	// refused scheduler or an unsteppable choice (see Runner.Run).
	// OutcomeError classifies it; Err returns it.
	StepError error
	// Deadlock carries the wait-for diagnosis when Deadlocked is true.
	Deadlock *DeadlockInfo
}

// Outcome classifies a completed run for callers that need a typed
// result — the generative-workload oracle runs programs nobody
// hand-tuned, and a pathological run must surface as a diagnosis, not
// a silently short one.
type Outcome int

const (
	// OutcomeDone: every thread returned from its entry function.
	OutcomeDone Outcome = iota
	// OutcomeCrashed: the run faulted (Result.Crash has the details).
	OutcomeCrashed
	// OutcomeDeadlocked: unfinished threads remained but none was
	// runnable (Result.Deadlock has the wait-for diagnosis).
	OutcomeDeadlocked
	// OutcomeCancelled: the Runner's context stopped the run.
	OutcomeCancelled
	// OutcomeStepLimited: the machine's step limit stopped the run — a
	// livelock, or a limit too tight for the program.
	OutcomeStepLimited
	// OutcomeStopped: the run stopped by caller policy with threads
	// still live — the scheduler yielded, or the Runner's own step
	// budget was reached (a BoundedRunContext's exact dump-capture
	// budget; Result.Budgeted).
	OutcomeStopped
	// OutcomeError: Result.StepError stopped the run, not a subject
	// crash.
	OutcomeError
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeDone:
		return "done"
	case OutcomeCrashed:
		return "crashed"
	case OutcomeDeadlocked:
		return "deadlocked"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeStepLimited:
		return "step-limited"
	case OutcomeStopped:
		return "stopped"
	case OutcomeError:
		return "error"
	}
	return "?"
}

// Outcome classifies the run. Crash wins over everything (the faulting
// step ended the run); the pathological stops (error, deadlock,
// cancellation, step limit) come before the benign ones.
func (r *Result) Outcome() Outcome {
	switch {
	case r.Crashed:
		return OutcomeCrashed
	case r.StepError != nil:
		return OutcomeError
	case r.Deadlocked:
		return OutcomeDeadlocked
	case r.Cancelled:
		return OutcomeCancelled
	case r.StepLimited && !r.Budgeted:
		return OutcomeStepLimited
	case r.Finished:
		return OutcomeDone
	}
	return OutcomeStopped
}

// Err returns a typed error for pathological outcomes, nil otherwise.
// A completed run, a crashed run and a scheduler-stopped run all
// return nil — a crash is the subject program's outcome, and a
// scheduler yielding early or an exact bounded budget is the caller's
// own policy, not a pathology. Errors wrap Result.StepError, deadlocks
// wrap interp.ErrDeadlock (with the wait-for diagnosis in the
// message), step-limit stops wrap interp.ErrStepLimit (the livelock
// diagnostic: the bound, and how far each thread got) and
// cancellations wrap context.Canceled; all are matchable with
// errors.Is.
func (r *Result) Err() error {
	switch {
	case r.Crashed:
		return nil
	case r.StepError != nil:
		return fmt.Errorf("sched: run stopped by an error after %d steps: %w", r.Steps, r.StepError)
	case r.Deadlocked:
		if r.Deadlock != nil {
			return fmt.Errorf("%w after %d steps: %s", interp.ErrDeadlock, r.Steps, r.Deadlock)
		}
		return fmt.Errorf("%w after %d steps", interp.ErrDeadlock, r.Steps)
	case r.Cancelled:
		cause := r.CancelCause
		if cause == nil {
			cause = context.Canceled
		}
		return fmt.Errorf("sched: run cancelled after %d steps: %w", r.Steps, cause)
	case r.StepLimited && !r.Budgeted:
		return fmt.Errorf("%w: no progress decision within %d steps (livelock or limit too tight)", interp.ErrStepLimit, r.Steps)
	}
	return nil
}

// WaitEdge is one blocked thread's wait-for edge.
type WaitEdge struct {
	// Thread waits for Lock, currently held by Holder (-1 if free —
	// possible only transiently, never in a deadlock diagnosis).
	Thread int
	Lock   string
	Holder int
}

// DeadlockInfo diagnoses a deadlocked machine: every blocked thread's
// wait-for edge, and the wait cycle if one exists (a deadlock among
// non-reentrant locks always has one unless a holder simply exited
// without releasing).
type DeadlockInfo struct {
	Waiters []WaitEdge
	// Cycle lists thread ids forming a wait-for cycle, in wait order,
	// or nil when the blockage is acyclic (a lock's holder finished
	// without releasing it).
	Cycle []int
}

// String renders the diagnosis for error messages.
func (d *DeadlockInfo) String() string {
	var sb strings.Builder
	for i, w := range d.Waiters {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "thread %d waits for lock %q held by thread %d", w.Thread, w.Lock, w.Holder)
	}
	if len(d.Cycle) > 0 {
		fmt.Fprintf(&sb, " (cycle: %v)", d.Cycle)
	}
	return sb.String()
}

// DiagnoseDeadlock inspects a machine with no runnable threads and
// returns the wait-for diagnosis: each blocked thread's edge, plus the
// first wait cycle found by following holder edges. Returns nil when
// no thread is blocked (the machine is done, not deadlocked).
func DiagnoseDeadlock(m *interp.Machine) *DeadlockInfo {
	waitsFor := map[int]int{} // blocked thread -> holder thread
	var d DeadlockInfo
	for _, t := range m.Threads {
		if t.Status != interp.Blocked {
			continue
		}
		holder := int(m.Locks[t.WaitLock])
		d.Waiters = append(d.Waiters, WaitEdge{
			Thread: t.ID,
			Lock:   m.Prog.Locks[t.WaitLock],
			Holder: holder,
		})
		waitsFor[t.ID] = holder
	}
	if len(d.Waiters) == 0 {
		return nil
	}
	// Follow wait-for edges from each blocked thread; a revisit within
	// one walk is a cycle.
	for _, w := range d.Waiters {
		seen := map[int]int{} // thread -> position in walk
		var walk []int
		cur := w.Thread
		for {
			if at, ok := seen[cur]; ok {
				d.Cycle = append([]int(nil), walk[at:]...)
				return &d
			}
			seen[cur] = len(walk)
			walk = append(walk, cur)
			next, blocked := waitsFor[cur]
			if !blocked || next < 0 {
				break // chain ends at a runnable/done holder: acyclic
			}
			cur = next
		}
	}
	return &d
}

// Runner executes machines under a scheduler with a uniform run
// policy. It is the one execution loop of the system: the Run and
// BoundedRunContext wrappers, pipeline stages, stress, witness
// searches, the schedule search's trials and the interpreter probes
// all construct Runners (a Runner is a value, so each run can carry
// its own bound without shared state).
type Runner struct {
	// MaxSteps bounds the steps executed by this run — not the
	// machine's lifetime total, so a Runner can extend a partially-run
	// machine by an exact amount. 0 means unlimited; negative runs
	// nothing.
	MaxSteps int64
	// Ctx, when non-nil, cancels the run cooperatively: it is polled
	// every ctxPollMask+1 steps, and a cancelled run stops with
	// Result.Cancelled set. A nil Ctx costs nothing. Cancellation never
	// perturbs the executed prefix — the schedule up to the stop point
	// is exactly what an uncancelled run would have produced.
	Ctx context.Context
}

// ctxPollMask throttles the Runner's context polls to every 1024
// steps: frequent enough that long deterministic re-executions (the
// alignment runs are the hot case) stop promptly, rare enough that the
// poll never shows up in a profile.
const ctxPollMask = 1023

// Run drives m with s until the machine halts, the scheduler yields,
// or the runner's step bound is reached: a Chooser in bursts up to its
// horizons, a *Random in stretches between the Runner's budget and
// context-poll boundaries whose later draws the machine makes. Both
// execute exactly the steps, in exactly the order, that asking before
// every step would. Run refuses any other scheduler, and a choice of a
// thread that is blocked, done or does not exist, with
// Result.StepError.
func (r Runner) Run(m *interp.Machine, s Scheduler) *Result {
	res := new(Result)
	r.run(m, s, res)
	return res
}

// run is Run's body. Run stays small enough to inline, so a caller
// that does not retain the Result (a search trial, a probe) keeps it
// off the heap.
func (r Runner) run(m *interp.Machine, s Scheduler, res *Result) {
	rnd, draws := s.(*Random)
	ch, bursts := s.(Chooser)
	if !draws && !bursts {
		res.StepError = fmt.Errorf("sched: %T is neither a *Random nor a Chooser", s)
	}
	start := m.TotalSteps
	for res.StepError == nil && !m.Crashed() && !m.Done() {
		n := m.TotalSteps - start
		if r.Ctx != nil && n&ctxPollMask == 0 && r.Ctx.Err() != nil {
			res.Cancelled = true
			res.CancelCause = r.Ctx.Err()
			break
		}
		if r.MaxSteps != 0 && n >= r.MaxSteps {
			res.StepLimited = true
			res.Budgeted = true
			break
		}
		tid := s.Next(m)
		if tid == -1 {
			break // the scheduler's yield sentinel
		}
		var ok bool
		var err error
		if draws {
			ok, err = m.RunRandom(tid, r.burstLimit(start, n), &rnd.rng)
		} else {
			ok, err = m.RunBurst(tid, r.burstLimit(start, n), ch.Horizon(m, tid))
		}
		if err == interp.ErrStepLimit {
			res.StepLimited = true
			break
		}
		if err != nil {
			// An internal interpreter error (corrupted IR, unknown
			// opcode) — not a subject crash. Record it so the typed
			// outcome carries the diagnosis instead of reading as a
			// benign stop.
			res.StepError = err
			break
		}
		if !ok {
			// A broken scheduler: stop rather than ask it again.
			res.StepError = fmt.Errorf("sched: %T chose thread %d, which cannot step", s, tid)
			break
		}
	}
	res.Steps = m.TotalSteps
	res.Output = m.Output
	res.Finished = m.Done()
	if m.Crashed() {
		res.Crashed = true
		res.Crash = m.Crash
	} else if !m.Done() && len(m.Runnable()) == 0 {
		res.Deadlocked = true
		res.Deadlock = DiagnoseDeadlock(m)
	}
}

// burstLimit is the machine step count at which a burst or a random
// stretch starting n steps into a run that began at start must stop:
// the run's budget, or the next context poll, whichever comes first (0
// when neither applies). Stopping there lets the loop above take the
// budget and poll decisions at exactly the steps a per-step loop
// would.
func (r Runner) burstLimit(start, n int64) int64 {
	var limit int64
	if r.MaxSteps > 0 {
		limit = start + r.MaxSteps
	}
	if r.Ctx != nil {
		if poll := start + (n | ctxPollMask) + 1; limit == 0 || poll < limit {
			limit = poll
		}
	}
	return limit
}

// Run drives m with s until the machine halts or the scheduler yields.
func Run(m *interp.Machine, s Scheduler) *Result {
	return Runner{}.Run(m, s)
}

// Cooperative is the deterministic single-core scheduler: the current
// thread keeps running until it blocks or finishes, at which point the
// lowest-id runnable thread is chosen. Context switches therefore
// happen only at synchronization operations and thread exits, which is
// the execution model the preemption-search phase perturbs. It is a
// Chooser whose horizon is unbounded, so a Runner runs each thread in
// one burst until it blocks or finishes.
type Cooperative struct {
	current int
	started bool
}

// NewCooperative returns a fresh deterministic scheduler.
func NewCooperative() *Cooperative { return &Cooperative{} }

// Next implements Scheduler.
func (c *Cooperative) Next(m *interp.Machine) int {
	runnable := m.Runnable()
	if len(runnable) == 0 {
		return -1
	}
	if c.started {
		for _, tid := range runnable {
			if tid == c.current {
				return tid
			}
		}
	}
	c.started = true
	c.current = runnable[0]
	return c.current
}

// Horizon implements Chooser: the current thread keeps the processor
// until it blocks or finishes, whatever its sync count.
func (c *Cooperative) Horizon(*interp.Machine, int) int { return math.MaxInt }

// Random steps a uniformly random runnable thread each step, standing
// in for the fine-grained interleaving of truly parallel cores. The
// seed fully determines the interleaving: Random draws exactly the
// values rand.New(rand.NewSource(seed)).Intn would. A Runner asks Next
// once per stretch and the machine makes the later draws of the
// stretch from Random's generator (interp.Machine.RunRandom), the same
// draws in the same order.
type Random struct {
	rng interp.RNG
}

// NewRandom returns a random scheduler with the given seed.
func NewRandom(seed int64) *Random {
	r := new(Random)
	r.Seed(seed)
	return r
}

// Seed rewinds r to the start of seed's stream, as if it were
// NewRandom(seed), without allocating.
func (r *Random) Seed(seed int64) { r.rng.Seed(seed) }

// Next implements Scheduler.
func (r *Random) Next(m *interp.Machine) int {
	runnable := m.Runnable()
	if len(runnable) == 0 {
		return -1
	}
	return runnable[r.rng.Intn(len(runnable))]
}

// BoundedRunContext runs m under s for at most maxSteps additional
// steps (non-positive bounds run nothing), with the Runner's
// cooperative context cancellation. It is used to capture dumps at
// precise points of deterministic runs.
func BoundedRunContext(ctx context.Context, m *interp.Machine, s Scheduler, maxSteps int64) *Result {
	if maxSteps <= 0 {
		maxSteps = -1
	}
	return Runner{MaxSteps: maxSteps, Ctx: ctx}.Run(m, s)
}

// StressResult describes the outcome of a stress-testing campaign.
type StressResult struct {
	// Seed is the interleaving seed that provoked the failure; rerun
	// NewRandom(Seed) under a trace.Recorder to obtain its schedule.
	Seed int64
	// Result is the failing run.
	Result *Result
	// Attempts is the number of seeds tried, including the failing one.
	Attempts int
}

// StressContext repeatedly executes fresh machines under random
// scheduling until one crashes or maxAttempts is exhausted. It models
// the paper's stress testing used only to acquire a failure core dump,
// and returns the machine in its crashed state for dump capture. The
// context is polled before every attempt and during each run; it
// returns (nil, nil) when cancelled or when no attempt crashed — the
// caller distinguishes cancellation from an exhausted budget via
// ctx.Err(). Seeds are tried in a fixed order, so an uncancelled
// StressContext is deterministic.
//
// The factory is called once: subsequent attempts rewind the same
// machine with Machine.Reset (which is observationally identical to a
// fresh build and recycles all per-run storage) and reseed the same
// Random, so a long stress campaign stops paying an allocation and a
// generator construction per attempt; seeds below 64 copy their
// generator state from a process-wide table (interp.RNG.Seed). On a
// crash the machine is returned still holding the crashed state for
// dump capture.
func StressContext(ctx context.Context, newMachine func() *interp.Machine, maxAttempts int) (*interp.Machine, *StressResult) {
	var m *interp.Machine
	var rnd Random
	for i := 0; i < maxAttempts; i++ {
		if ctx != nil && ctx.Err() != nil {
			return nil, nil
		}
		if m == nil {
			m = newMachine()
		} else {
			m.Reset(m.Prog, m.SeedInput())
		}
		rnd.Seed(int64(i))
		res := Runner{Ctx: ctx}.Run(m, &rnd)
		if res.Cancelled {
			return nil, nil
		}
		if res.Crashed {
			return m, &StressResult{Seed: int64(i), Result: res, Attempts: i + 1}
		}
	}
	return nil, nil
}
