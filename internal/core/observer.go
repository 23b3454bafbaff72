package core

import "heisendump/internal/chess"

// SearchProgress is one schedule-search heartbeat; see chess.Progress
// for the field contract (deterministic fold stream vs raw cost
// counters).
type SearchProgress = chess.Progress

// Observer receives progress events from a reproduction run. Attach
// one via Config.Observer (the root package's WithObserver option).
//
// A single run delivers, in order: one Stage event per analysis stage
// as it begins (StageAlign through StageCandidates, strictly
// ascending), then a stream of Search heartbeats, ending with exactly
// one snapshot whose Done field is set. Within the heartbeat stream
// every counter is monotone non-decreasing, but the fields split into
// two contracts: Committed/Tries/Found advance with the deterministic
// rank-order fold (identical stream for any worker count), while
// Executed and Steps are raw cost counters whose intermediate values
// depend on worker scheduling.
// Stage events arrive on the goroutine driving the run; Search events
// arrive from search goroutines with internal locks held, so
// implementations must be fast, safe for concurrent use with the
// caller, and must not call back into the session or pipeline.
// Cancelling the run's context from inside a callback is supported —
// it is the intended way to implement deterministic cutoffs.
type Observer interface {
	// Stage is called when analysis stage s is about to run.
	Stage(s Stage)
	// Search is called with heartbeat snapshots of the schedule
	// search: one per committed worklist rank, plus a final snapshot
	// with Done set.
	Search(p SearchProgress)
}

// ObserverFuncs adapts plain functions to Observer; nil fields are
// no-ops, so callers implement only the events they care about.
type ObserverFuncs struct {
	StageFunc  func(Stage)
	SearchFunc func(SearchProgress)
}

// Stage implements Observer.
func (o ObserverFuncs) Stage(s Stage) {
	if o.StageFunc != nil {
		o.StageFunc(s)
	}
}

// Search implements Observer.
func (o ObserverFuncs) Search(p SearchProgress) {
	if o.SearchFunc != nil {
		o.SearchFunc(p)
	}
}
