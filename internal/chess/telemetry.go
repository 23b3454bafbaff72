package chess

import (
	"heisendump/internal/interp"
	"heisendump/internal/telemetry"
)

// Telemetry plumbing for the search. Everything here is strictly
// passive — counters and the Options.Trial hook observe trials after
// their outcome is fixed, at trial granularity (never per step), so
// the determinism contract (Found/Schedule/Tries bit-identical with
// telemetry on or off, for any worker count) and the allocs/step=0
// budget are untouched.

// TrialEvent describes one executed trial, delivered to
// Options.Trial.
type TrialEvent struct {
	// Rank is the trial's worklist rank; Trial is its 0-based index
	// within the combination's exploration.
	Rank  int
	Trial int
	// Worker is the worker goroutine that executed the trial; -1 marks
	// the post-join sequential repair path.
	Worker int
	// Steps counts the interpreter steps the trial executed.
	Steps int64
	// Found marks a trial that reproduced the target failure.
	Found bool
}

// observeTrial publishes one executed trial to the telemetry layer:
// the sharded chess and interpreter counters, the crash classifier,
// and the Options.Trial hook. worker indexes the counter shard; the
// post-join repair path's -1 wraps to a valid cell like any other
// out-of-range id.
func (st *searchState) observeTrial(rank, trial, worker int, tr *trialResult, m *interp.Machine) {
	telemetry.ChessTrialsExecuted.Cell(worker).Inc()
	telemetry.ChessStepsExecuted.Cell(worker).Add(tr.steps)
	telemetry.ChessTrialSteps.Cell(worker).Observe(tr.steps)
	telemetry.ChessWorkerSteps(max(worker, 0)).Cell(worker).Add(tr.steps)
	if m.Crashed() {
		crashCounter(interp.CrashKind(m.Crash.Reason)).Cell(worker).Inc()
	}
	if st.s.Opts.Trial != nil {
		st.s.Opts.Trial(TrialEvent{
			Rank: rank, Trial: trial, Worker: worker,
			Steps: tr.steps, Found: tr.found,
		})
	}
}

// crashCounter maps a CrashKind class to its labeled counter.
func crashCounter(kind string) *telemetry.Counter {
	switch kind {
	case "lock":
		return telemetry.InterpCrashLock
	case "assert":
		return telemetry.InterpCrashAssert
	case "pointer":
		return telemetry.InterpCrashPointer
	case "bounds":
		return telemetry.InterpCrashBounds
	case "arith":
		return telemetry.InterpCrashArith
	default:
		return telemetry.InterpCrashOther
	}
}
