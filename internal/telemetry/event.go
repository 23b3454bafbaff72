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
	// KindFold reports one heartbeat of the search's rank-order fold
	// in Progress and, for each committed rank, that rank in Rank.
	KindFold
)

// Event is one entry of a reproduction's event stream: the single
// carrier of stage and fold data to every consumer (tracer, flight
// recorder, the batch server's SSE hub, progress printers).
//
// Delivery contract:
//   - Stage events arrive on the goroutine driving the run. A full
//     run brackets seven stages, in order: provoke, align,
//     aligned-dump, diff, prioritize, candidates and search. Every
//     begin is followed by exactly one end carrying its Span, also
//     when the stage fails or is cancelled. Span ids are unique in
//     the process, so one consumer shared by concurrent runs pairs
//     them exactly.
//   - Fold events arrive under the search's lock, so they are
//     serialized: one per worklist rank the fold commits, in rank
//     order and carrying that rank in Rank, then exactly one with
//     Done set (and a zero Rank) as the search returns. Rank's Rank,
//     Tries and Found and Progress's Committed, Tries and Found form
//     a stream identical for any worker count; Rank's Steps and
//     Worker and Progress's Executed and Steps are raw cost figures
//     that depend on worker scheduling. Trials of ranks the fold
//     never commits show only in Executed and Steps.
//   - Every fold of a search falls between the search's begin and
//     end.
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
	// Rank is the rank a KindFold event commits; zero on the Done
	// heartbeat.
	Rank Rank
	// Progress is the heartbeat of a KindFold event.
	Progress Progress
}

// Rank summarizes one worklist rank the search's fold committed.
type Rank struct {
	// Rank is the worklist rank.
	Rank int `json:"rank"`
	// Tries is what the rank adds to the folded try count: the
	// winning trial's index plus one for the winner, otherwise its
	// trials capped at the budget the fold had left.
	Tries int `json:"tries"`
	// Steps counts the interpreter steps of every trial that explored
	// the rank; Worker is the search's pool worker that explored it,
	// in [0, the search's worker count).
	Steps  int64 `json:"steps"`
	Worker int   `json:"worker"`
	// Found marks the committed winner.
	Found bool `json:"found,omitempty"`
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
