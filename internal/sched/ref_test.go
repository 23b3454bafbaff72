package sched_test

import (
	"context"
	"math/rand"

	"heisendump/internal/interp"
	"heisendump/internal/sched"
)

// This file keeps the run loop as it was before the Runner learned to
// burst: one scheduler call and one Machine.Step per instruction, with
// Done and the runnable set recomputed by scanning every thread, and
// the random scheduler drawing from math/rand itself. It exists only
// as the oracle the burst loop, the machine's cached thread
// bookkeeping and the stress generator are checked against (see
// loop_oracle_test.go); nothing outside tests runs it.

// refScheduler is the reference loop's scheduler interface.
type refScheduler interface {
	next(m *interp.Machine) int
}

// refRunnable is Machine.Runnable by a full scan.
func refRunnable(m *interp.Machine) []int {
	var out []int
	for _, t := range m.Threads {
		switch t.Status {
		case interp.Runnable:
			out = append(out, t.ID)
		case interp.Blocked:
			if m.Locks[t.WaitLock] == -1 {
				out = append(out, t.ID)
			}
		}
	}
	return out
}

// refDone is Machine.Done by a full scan.
func refDone(m *interp.Machine) bool {
	for _, t := range m.Threads {
		if t.Status != interp.Done {
			return false
		}
	}
	return true
}

// refRun is the per-step Runner.Run. It always records the schedule.
func refRun(m *interp.Machine, s refScheduler, maxSteps int64, ctx context.Context) *sched.Result {
	const ctxPollMask = 1023
	res := &sched.Result{}
	for m.Crash == nil && !refDone(m) {
		if ctx != nil && int64(len(res.Schedule))&ctxPollMask == 0 && ctx.Err() != nil {
			res.Cancelled = true
			res.CancelCause = ctx.Err()
			break
		}
		if maxSteps != 0 && int64(len(res.Schedule)) >= maxSteps {
			res.StepLimited = true
			res.Budgeted = true
			break
		}
		tid := s.next(m)
		if tid == -1 {
			break
		}
		if tid < 0 || tid >= len(m.Threads) {
			res.Stalled = true
			res.StallThread = tid
			break
		}
		ok, err := m.Step(tid)
		if err == interp.ErrStepLimit {
			res.StepLimited = true
			break
		}
		if err != nil {
			res.StepError = err
			break
		}
		if !ok {
			res.Stalled = true
			res.StallThread = tid
			break
		}
		res.Schedule = append(res.Schedule, tid)
	}
	res.Steps = m.TotalSteps
	res.Output = m.Output
	res.Finished = refDone(m)
	if m.Crash != nil {
		res.Crashed = true
		res.Crash = m.Crash
	} else if !refDone(m) && len(refRunnable(m)) == 0 {
		res.Deadlocked = true
		res.Deadlock = sched.DiagnoseDeadlock(m)
	}
	return res
}

// refCooperative is the cooperative scheduler, asked every step.
type refCooperative struct {
	current int
	started bool
}

func (c *refCooperative) next(m *interp.Machine) int {
	runnable := refRunnable(m)
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

// refRandom is the random scheduler over math/rand.
type refRandom struct{ rng *rand.Rand }

func newRefRandom(seed int64) *refRandom {
	return &refRandom{rng: rand.New(rand.NewSource(seed))}
}

func (r *refRandom) next(m *interp.Machine) int {
	runnable := refRunnable(m)
	if len(runnable) == 0 {
		return -1
	}
	return runnable[r.rng.Intn(len(runnable))]
}

// refReplayer replays a schedule, then stops.
type refReplayer struct {
	schedule []int
	pos      int
}

func (r *refReplayer) next(*interp.Machine) int {
	if r.pos >= len(r.schedule) {
		return -1
	}
	tid := r.schedule[r.pos]
	r.pos++
	return tid
}
