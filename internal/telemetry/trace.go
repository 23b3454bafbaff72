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

	seen atomic.Int64 // trial events offered since the last sampled one

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
// a sampled trial (KindTrial), held by value. WriteJSON renders it as
// a trace event.
type record struct {
	kind    Kind
	stage   string
	ts, dur int64
	trial   Trial
}

// recBlock is the number of records in one block of Tracer.recs.
const recBlock = 64

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
	case KindTrial:
		if !t.sampled() {
			return
		}
		t.mu.Lock()
		t.add(record{kind: KindTrial, ts: t.now(), trial: e.Trial})
		t.mu.Unlock()
	}
}

// sampled reports whether the tracer keeps the trial event being
// offered: every sampleEvery-th one, counted across goroutines. The
// count wraps at sampleEvery by compare-and-swap, so the test costs one
// atomic operation and no division.
func (t *Tracer) sampled() bool {
	n := int64(t.sampleEvery)
	if n <= 1 {
		return true
	}
	for {
		v := t.seen.Load()
		next := v + 1
		if next == n {
			next = 0
		}
		if t.seen.CompareAndSwap(v, next) {
			return next == 0
		}
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
	if r.kind == KindTrial {
		args := r.trial
		return traceEvent{Name: "trial", Ph: "i", S: "t", Ts: r.ts, Pid: 1, Tid: args.Worker + 1, Args: &args}
	}
	return traceEvent{Name: r.stage, Ph: "X", Ts: r.ts, Dur: r.dur, Pid: 1}
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
