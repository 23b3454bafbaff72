package chess

import (
	"heisendump/internal/interp"
	"heisendump/internal/telemetry"
)

// Telemetry plumbing for the search. Everything here is strictly
// passive — counters and the Options.Observers stream observe trials
// after their outcome is fixed, at trial granularity (never per step),
// so the determinism contract (Found/Schedule/Tries bit-identical with
// telemetry on or off, for any worker count) and the allocs/step=0
// budget are untouched.

// observeTrial publishes one executed trial to the telemetry layer:
// the sharded chess and interpreter counters, the crash classifier,
// and the Options.Observers stream. worker, the pool worker that ran
// the trial, indexes the counter shard.
func (st *searchState) observeTrial(rank, trial, worker int, tr *trialResult, m *interp.Machine) {
	telemetry.ChessTrialsExecuted.Cell(worker).Inc()
	telemetry.ChessStepsExecuted.Cell(worker).Add(tr.steps)
	telemetry.ChessTrialSteps.Cell(worker).Observe(tr.steps)
	telemetry.ChessWorkerSteps(worker).Cell(worker).Add(tr.steps)
	if m.Crashed() {
		crashCounter(interp.CrashKind(m.Crash.Reason)).Cell(worker).Inc()
	}
	if len(st.s.Opts.Observers) == 0 {
		return
	}
	st.s.Opts.Observers.Observe(telemetry.Event{Kind: telemetry.KindTrial, Trial: telemetry.Trial{
		Rank: rank, Trial: trial, Worker: worker,
		Steps: tr.steps, Found: tr.found,
	}})
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
