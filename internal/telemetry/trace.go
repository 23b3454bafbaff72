package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer is an Observer that records stage spans and sampled trial
// events, exportable as Chrome trace-event JSON (chrome://tracing,
// Perfetto). It pairs each stage end with its begin by span id, so
// one Tracer may observe concurrent runs.
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
	open   map[uint64]int // span id -> index of its open stage event
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

// Observe records a stage begin as a Chrome complete span, closes it
// at the end carrying the same span id, and records a sampled trial
// as an instant on its worker's track. Fold events are ignored.
func (t *Tracer) Observe(e Event) {
	if t == nil {
		return
	}
	switch e.Kind {
	case KindStageBegin:
		t.mu.Lock()
		if t.open == nil {
			t.open = map[uint64]int{}
		}
		t.open[e.Span] = len(t.events)
		t.events = append(t.events, traceEvent{Name: e.Stage, Ph: "X", Ts: t.now(), Pid: 1})
		t.mu.Unlock()
	case KindStageEnd:
		t.mu.Lock()
		if i, ok := t.open[e.Span]; ok {
			delete(t.open, e.Span)
			t.events[i].Dur = max(t.now()-t.events[i].Ts, 1)
		}
		t.mu.Unlock()
	case KindTrial:
		if n := int64(t.sampleEvery); n > 1 && t.seen.Add(1)%n != 0 {
			return
		}
		args := e.Trial
		t.mu.Lock()
		t.events = append(t.events, traceEvent{
			Name: "trial", Ph: "i", S: "t", Ts: t.now(), Pid: 1, Tid: args.Worker + 1, Args: &args,
		})
		t.mu.Unlock()
	}
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
// ({"traceEvents": [...]}); a nil tracer writes the empty envelope.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := []traceEvent{}
	if t != nil {
		t.mu.Lock()
		events = append(events, t.events...)
		t.mu.Unlock()
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
// stages, "i" instants for sampled trials.
type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	S    string `json:"s,omitempty"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Args *Trial `json:"args,omitempty"`
}
