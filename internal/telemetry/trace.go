package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// TrialEvent is the telemetry-side record of one schedule-search
// trial — the fields chess.TrialEvent carries, restated here so the
// telemetry layer depends on nothing above it.
type TrialEvent struct {
	// Rank is the worklist rank of the trial's combination; Trial is
	// its 0-based index within that combination's exploration.
	Rank  int
	Trial int
	// Worker is the searcher worker that ran the trial (-1 for the
	// post-join repair path).
	Worker int
	// Steps counts the trial's executed steps; Found marks a trial
	// that reproduced the target failure.
	Steps int64
	Found bool
}

// Tracer records pipeline stage spans and sampled per-trial events,
// exportable as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// The clock is injected: a nil clock makes the tracer fully synthetic
// — every event is stamped with a monotonically increasing tick — so
// deterministic packages can trace without reading wall time. All
// methods are safe for concurrent use and safe on a nil *Tracer
// (no-ops), so call sites need no guards.
type Tracer struct {
	clock func() time.Time
	// sampleEvery keeps one trial event in every n; <=1 keeps all.
	// Stage spans are never sampled out.
	sampleEvery int

	seen atomic.Int64 // trial events offered, for sampling

	mu     sync.Mutex
	base   time.Time
	based  bool
	tick   int64 // synthetic clock, µs per event
	events []traceEvent
}

// NewTracer returns a tracer. clock supplies event timestamps; nil
// selects the synthetic tick. sampleEvery <= 1 records every trial
// event, n records one in n.
func NewTracer(clock func() time.Time, sampleEvery int) *Tracer {
	return &Tracer{clock: clock, sampleEvery: sampleEvery}
}

// now returns the event timestamp in microseconds since the tracer's
// first event. Callers hold t.mu.
func (t *Tracer) now() int64 {
	if t.clock == nil {
		t.tick++
		return t.tick
	}
	n := t.clock()
	if !t.based {
		t.base, t.based = n, true
	}
	return n.Sub(t.base).Microseconds()
}

// StageBegin opens a pipeline stage span and returns its closer.
func (t *Tracer) StageBegin(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	start := t.now()
	idx := len(t.events)
	t.events = append(t.events, traceEvent{Name: name, Ph: "X", Ts: start, Pid: 1, Tid: 0})
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		end := t.now()
		if d := end - t.events[idx].Ts; d > 0 {
			t.events[idx].Dur = d
		} else {
			t.events[idx].Dur = 1
		}
		t.mu.Unlock()
	}
}

// Trial records one sampled trial event as a Chrome instant event on
// the worker's track.
func (t *Tracer) Trial(ev TrialEvent) {
	if t == nil {
		return
	}
	if n := int64(t.sampleEvery); n > 1 && t.seen.Add(1)%n != 0 {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, traceEvent{
		Name: "trial", Ph: "i", S: "t", Ts: t.now(), Pid: 1, Tid: ev.Worker + 1,
		Args: &trialArgs{
			Rank: ev.Rank, Trial: ev.Trial, Worker: ev.Worker,
			Steps: ev.Steps, Found: ev.Found,
		},
	})
	t.mu.Unlock()
}

// Len reports the recorded event count.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteJSON renders the recorded events as a Chrome trace-event file
// ({"traceEvents": [...]}).
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	events := append([]traceEvent(nil), t.events...)
	t.mu.Unlock()
	if events == nil {
		events = []traceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// traceFile is the Chrome trace-event JSON envelope.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// traceEvent is one Chrome trace event: "X" complete spans for
// pipeline stages, "i" instants for sampled trials.
type traceEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	S    string     `json:"s,omitempty"`
	Ts   int64      `json:"ts"`
	Dur  int64      `json:"dur,omitempty"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args *trialArgs `json:"args,omitempty"`
}

// trialArgs is the structured payload of a trial instant.
type trialArgs struct {
	Rank   int   `json:"rank"`
	Trial  int   `json:"trial"`
	Worker int   `json:"worker"`
	Steps  int64 `json:"steps"`
	Found  bool  `json:"found"`
}
