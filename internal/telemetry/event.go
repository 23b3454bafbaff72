package telemetry

import "sync/atomic"

// Kind says what an Event reports.
type Kind uint8

// Event kinds.
const (
	// KindStageBegin opens a stage span: Stage names the stage, Span
	// identifies the span.
	KindStageBegin Kind = iota + 1
	// KindStageEnd closes the span whose begin carried the same Span.
	KindStageEnd
	// KindTrial reports one executed schedule-search trial in Trial.
	KindTrial
	// KindFold reports one heartbeat of the search's rank-order fold
	// in Progress.
	KindFold
)

// Event is one entry of a reproduction's event stream: the single
// carrier of stage, trial and fold data to every consumer (tracer,
// flight recorder, the batch server's SSE hub, progress printers).
//
// Delivery contract:
//   - Stage events arrive on the goroutine driving the run. A full
//     run brackets seven stages, in order: provoke, align,
//     aligned-dump, diff, prioritize, candidates and search. Every
//     begin is followed by exactly one end carrying its Span, also
//     when the stage fails or is cancelled. Span ids are unique in
//     the process, so one consumer shared by concurrent runs pairs
//     them exactly.
//   - Trial events arrive concurrently from search workers, in the
//     order the trials complete (not rank order), including
//     speculative trials the fold later discards.
//   - Fold events arrive under the search's lock, so they are
//     serialized: one per worklist rank the fold commits, then
//     exactly one with Done set as the search returns. Committed,
//     Tries and Found form a stream identical for any worker count;
//     Executed and Steps are monotone raw cost counters that depend
//     on worker scheduling.
//   - Every trial and fold of a search falls between the search's
//     begin and end.
//
// Observers must be fast and safe for concurrent use, and must not
// call back into the run. Cancelling the run's context from a fold
// event is supported: it is the way to stop a search at a
// deterministic point.
type Event struct {
	Kind Kind
	// Stage names the stage of a stage event.
	Stage string
	// Span pairs a stage begin with its end.
	Span uint64
	// Trial is the trial of a KindTrial event.
	Trial Trial
	// Progress is the heartbeat of a KindFold event.
	Progress Progress
}

// Trial is one executed schedule-search trial.
type Trial struct {
	// Rank is the worklist rank of the trial's combination; Trial is
	// its 0-based index within that combination's exploration.
	Rank  int `json:"rank"`
	Trial int `json:"trial"`
	// Worker is the search's pool worker that ran the trial, in
	// [0, the search's worker count).
	Worker int `json:"worker"`
	// Steps counts the trial's executed interpreter steps; Found marks
	// a trial that reproduced the target failure.
	Steps int64 `json:"steps"`
	Found bool  `json:"found,omitempty"`
}

// Progress is one heartbeat snapshot of a running schedule search.
type Progress struct {
	// Combos is the worklist size (constant per search).
	Combos int
	// Committed counts the worklist ranks the deterministic fold has
	// consumed so far.
	Committed int
	// Tries is the folded sequential-equivalent try count so far,
	// deterministic for any worker count.
	Tries int
	// Executed and Steps are the raw cost counters at snapshot time
	// (test runs executed including speculation, interpreter steps
	// executed): monotone across the stream, dependent on worker
	// scheduling.
	Executed int
	Steps    int64
	// Found reports whether a winning schedule has committed.
	Found bool
	// Done marks the final snapshot, emitted exactly once as the
	// search returns.
	Done bool
	// Cancelled marks a Done snapshot of a search whose context was
	// cancelled before the fold decided it.
	Cancelled bool `json:",omitempty"`
}

// Observer consumes the event stream.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to Observer.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(e Event) { f(e) }

// Observers fans every event out to each element, in order.
type Observers []Observer

// Observe implements Observer.
func (os Observers) Observe(e Event) {
	for _, o := range os {
		o.Observe(e)
	}
}

var lastSpan atomic.Uint64

// NewSpan returns a span id unique in the process.
func NewSpan() uint64 { return lastSpan.Add(1) }
