package telemetry

import "strconv"

// The catalog: every instrument the pipeline and the server
// increment, const-registered in the Default registry at package
// init. Layers reference these vars directly — no lookup, no
// allocation, no registration races — and the /metrics handler and
// Stats fold read them via Registry scrapes.
//
// Naming follows Prometheus conventions: a heisen_<layer>_ prefix,
// _total suffixes on counters, constant labels for enumerable
// dimensions (worker, outcome, crash kind).

// trialStepBounds bucket per-trial executed-step counts: trials range
// from a few steps (an early crash) to the per-run bound, so the
// boundaries are decade-spaced.
var trialStepBounds = []int64{10, 100, 1_000, 10_000, 100_000, 1_000_000}

// Schedule-search (internal/chess) instruments. Sharded by worker id:
// search workers increment through Cell(worker).
var (
	ChessSearches = Default().Counter("heisen_chess_searches_total",
		"Schedule searches started.")
	ChessSearchesFound = Default().Counter("heisen_chess_searches_found_total",
		"Schedule searches that committed a failure-inducing schedule.")
	ChessTrialsExecuted = Default().Counter("heisen_chess_trials_executed_total",
		"Test runs executed, including speculative runs.")
	ChessStepsExecuted = Default().Counter("heisen_chess_steps_executed_total",
		"Interpreter steps executed by trials.")
	ChessGuidanceReorders = Default().Counter("heisen_chess_guidance_reorders_total",
		"Worklists reordered by the static-analysis focus set.")
	ChessTrialSteps = Default().Histogram("heisen_chess_trial_steps",
		"Per-trial executed interpreter steps.",
		trialStepBounds)
)

// chessWorkerSteps splits executed steps by searcher worker id, for
// per-worker throughput attribution; worker ids at or above
// cellShards wrap (the same modulus the cells use).
var chessWorkerSteps = func() [cellShards]*Counter {
	var a [cellShards]*Counter
	for i := range a {
		a[i] = Default().Counter("heisen_chess_worker_steps_total",
			"Interpreter steps executed, by searcher worker id (mod 16).",
			Label{Key: "worker", Value: strconv.Itoa(i)})
	}
	return a
}()

// ChessWorkerSteps returns worker i's step-throughput counter.
func ChessWorkerSteps(i int) *Counter { return chessWorkerSteps[uint(i)%cellShards] }

// Interpreter (internal/interp) crash instruments, counted at trial
// completion by the search layer — the interpreter's own dispatch loop
// stays untouched — by fault class. Executed steps are
// heisen_chess_steps_executed_total.
var (
	InterpCrashLock = Default().Counter("heisen_interp_crashes_total",
		"Machine crashes by fault kind.", Label{Key: "kind", Value: "lock"})
	InterpCrashAssert = Default().Counter("heisen_interp_crashes_total",
		"Machine crashes by fault kind.", Label{Key: "kind", Value: "assert"})
	InterpCrashPointer = Default().Counter("heisen_interp_crashes_total",
		"Machine crashes by fault kind.", Label{Key: "kind", Value: "pointer"})
	InterpCrashBounds = Default().Counter("heisen_interp_crashes_total",
		"Machine crashes by fault kind.", Label{Key: "kind", Value: "bounds"})
	InterpCrashArith = Default().Counter("heisen_interp_crashes_total",
		"Machine crashes by fault kind.", Label{Key: "kind", Value: "arith"})
	InterpCrashOther = Default().Counter("heisen_interp_crashes_total",
		"Machine crashes by fault kind.", Label{Key: "kind", Value: "other"})
)

// Program-cache (internal/progcache) instruments.
var (
	ProgcacheHits = Default().Counter("heisen_progcache_hits_total",
		"Compiled-program cache hits.")
	ProgcacheMisses = Default().Counter("heisen_progcache_misses_total",
		"Compiled-program cache misses (compiles performed).")
	ProgcacheEvictions = Default().Counter("heisen_progcache_evictions_total",
		"Compiled-program cache LRU evictions.")
)

// Static-analysis (internal/statics) instruments.
var (
	StaticsAnalyses = Default().Counter("heisen_statics_analyses_total",
		"Static concurrency analyses run (memoized re-reads excluded).")
	StaticsRaceCandidates = Default().Counter("heisen_statics_race_candidates_total",
		"Race candidates reported by the lockset analyzer.")
	StaticsDeadlockCandidates = Default().Counter("heisen_statics_deadlock_candidates_total",
		"Deadlock candidates reported by the lock-order analyzer.")
)

// Server (internal/server) instruments. Per-instance values (queue
// depth, store size) are scraped from the server object via
// GaugeFamily instead — see internal/server's metrics handler.
var (
	ServerJobsSubmitted = Default().Counter("heisen_server_jobs_submitted_total",
		"Jobs admitted into the scheduler.")
	ServerJobsReproduced = Default().Counter("heisen_server_jobs_completed_total",
		"Jobs completed by outcome.", Label{Key: "outcome", Value: "reproduced"})
	ServerJobsNotReproduced = Default().Counter("heisen_server_jobs_completed_total",
		"Jobs completed by outcome.", Label{Key: "outcome", Value: "not_reproduced"})
	ServerJobsError = Default().Counter("heisen_server_jobs_completed_total",
		"Jobs completed by outcome.", Label{Key: "outcome", Value: "error"})
	ServerJobsShed = Default().Counter("heisen_server_jobs_shed_total",
		"Jobs rejected at admission by the per-tenant queue cap.")
	ServerJobsDeadline = Default().Counter("heisen_server_jobs_deadline_total",
		"Jobs that exhausted their deadline (at admission or mid-run).")
	ServerDRRRecharges = Default().Counter("heisen_server_drr_recharges_total",
		"Deficit round-robin credit recharges across tenant queues.")
	ServerSSEDropped = Default().Counter("heisen_server_sse_dropped_total",
		"SSE events dropped from hub rings because subscribers lagged.")
	ServerStoreEvictions = Default().Counter("heisen_server_store_evictions_total",
		"Completed jobs expired from the TTL store.")
)
