package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer is an Observer that records stage spans and the search's
// committed ranks, exportable as Chrome trace-event JSON
// (chrome://tracing, Perfetto). It pairs each stage end with its
// begin by span id, so one Tracer may observe concurrent runs.
//
// The clock is injected: a nil clock makes the tracer fully synthetic
// — every event is stamped with a monotonically increasing tick — so
// deterministic packages can trace without reading wall time. All
// methods are safe for concurrent use and safe on a nil *Tracer
// (no-ops), so call sites need no guards.
type Tracer struct {
	clock func() time.Time

	mu    sync.Mutex
	base  time.Time
	based bool
	tick  int64 // synthetic clock, µs per event
	// recs holds the records in order, in blocks of recBlock, so
	// recording one never copies the ones before it; n counts them.
	recs [][]record
	n    int
	open map[uint64]int // span id -> index of its open stage record
}

// record is one recorded event, a stage span (kind KindStageBegin) or
// a committed rank (KindFold), held by value. WriteJSON renders it as
// a trace event.
type record struct {
	kind    Kind
	stage   string
	ts, dur int64
	rank    Rank
}

// recBlock is the number of records in one block of Tracer.recs.
const recBlock = 64

// NewTracer returns a tracer. clock supplies event timestamps; nil
// selects the synthetic tick.
func NewTracer(clock func() time.Time) *Tracer {
	return &Tracer{clock: clock}
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

// add appends r to the records. Callers hold t.mu.
func (t *Tracer) add(r record) {
	if t.n%recBlock == 0 {
		t.recs = append(t.recs, make([]record, 0, recBlock))
	}
	last := len(t.recs) - 1
	t.recs[last] = append(t.recs[last], r)
	t.n++
}

// at returns record i. Callers hold t.mu.
func (t *Tracer) at(i int) *record { return &t.recs[i/recBlock][i%recBlock] }

// Observe records a stage begin as a Chrome complete span, closes it
// at the end carrying the same span id, and records each committed
// rank as an instant on its worker's track. The Done heartbeat is
// ignored.
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
		t.open[e.Span] = t.n
		t.add(record{kind: KindStageBegin, stage: e.Stage, ts: t.now()})
		t.mu.Unlock()
	case KindStageEnd:
		t.mu.Lock()
		if i, ok := t.open[e.Span]; ok {
			delete(t.open, e.Span)
			r := t.at(i)
			r.dur = max(t.now()-r.ts, 1)
		}
		t.mu.Unlock()
	case KindFold:
		if e.Progress.Done {
			return
		}
		t.mu.Lock()
		t.add(record{kind: KindFold, ts: t.now(), rank: e.Rank})
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
	return t.n
}

// WriteJSON renders the recorded events as a Chrome trace-event file
// ({"traceEvents": [...]}); a nil tracer writes the empty envelope.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := []traceEvent{}
	if t != nil {
		t.mu.Lock()
		for _, b := range t.recs {
			for _, r := range b {
				events = append(events, r.event())
			}
		}
		t.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// event renders r as a Chrome trace event.
func (r record) event() traceEvent {
	if r.kind == KindFold {
		args := r.rank
		return traceEvent{Name: "rank", Ph: "i", S: "t", Ts: r.ts, Pid: 1, Tid: args.Worker + 1, Args: &args}
	}
	return traceEvent{Name: r.stage, Ph: "X", Ts: r.ts, Dur: r.dur, Pid: 1}
}

// traceFile is the Chrome trace-event JSON envelope.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// traceEvent is one Chrome trace event: "X" complete spans for
// stages, "i" instants for committed ranks.
type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	S    string `json:"s,omitempty"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Args *Rank  `json:"args,omitempty"`
}
