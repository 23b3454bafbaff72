package chess

import (
	"heisendump/internal/interp"
	"heisendump/internal/telemetry"
)

// Telemetry plumbing for the search. Everything here is strictly
// passive — the always-on counters count trials after their outcome is
// fixed, at trial granularity (never per step), so the determinism
// contract (Found/Schedule/Tries bit-identical with telemetry on or
// off, for any worker count) and the allocs/step=0 budget are
// untouched. The Options.Observers stream sees committed ranks only,
// from the fold (see searchState.progressLocked).

// countTrial counts one executed trial in the sharded chess and
// interpreter counters and the crash classifier. worker, the pool
// worker that ran the trial, indexes the counter shard.
func countTrial(worker int, tr *trialResult, m *interp.Machine) {
	telemetry.ChessTrialsExecuted.Cell(worker).Inc()
	telemetry.ChessStepsExecuted.Cell(worker).Add(tr.steps)
	telemetry.ChessTrialSteps.Cell(worker).Observe(tr.steps)
	telemetry.ChessWorkerSteps(worker).Cell(worker).Add(tr.steps)
	if m.Crashed() {
		crashCounter(interp.CrashKind(m.Crash.Reason)).Cell(worker).Inc()
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
