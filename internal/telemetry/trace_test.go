package telemetry

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func beginEvent(name string, span uint64) Event {
	return Event{Kind: KindStageBegin, Stage: name, Span: span}
}

func endEvent(name string, span uint64) Event {
	return Event{Kind: KindStageEnd, Stage: name, Span: span}
}

func rankEvent(r Rank) Event { return Event{Kind: KindFold, Rank: r} }

// traceEvents decodes a tracer's written events.
func traceEvents(t *testing.T, tr *Tracer) []struct {
	Name string
	Ph   string
	Ts   int64
	Dur  int64
} {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   int64
			Dur  int64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &f); err != nil {
		t.Fatal(err)
	}
	return f.TraceEvents
}

// TestTracerSyntheticClock checks that a nil clock produces strictly
// increasing synthetic timestamps — the mode deterministic callers
// use, with zero wall-clock reads.
func TestTracerSyntheticClock(t *testing.T) {
	tr := NewTracer(nil)
	tr.Observe(beginEvent("align", 1))
	tr.Observe(rankEvent(Rank{Rank: 1, Worker: 0, Tries: 2, Steps: 10}))
	tr.Observe(endEvent("align", 1))
	tr.Observe(rankEvent(Rank{Rank: 2, Worker: 1, Tries: 1, Steps: 20, Found: true}))
	tr.Observe(Event{Kind: KindFold, Progress: Progress{Done: true}}) // not traced

	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Args *struct {
				Found bool `json:"found"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &f); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(f.TraceEvents))
	}
	if f.TraceEvents[0].Name != "align" || f.TraceEvents[0].Ph != "X" || f.TraceEvents[0].Dur <= 0 {
		t.Errorf("stage span malformed: %+v", f.TraceEvents[0])
	}
	if f.TraceEvents[2].Name != "rank" || f.TraceEvents[2].Ph != "i" ||
		f.TraceEvents[2].Args == nil || !f.TraceEvents[2].Args.Found {
		t.Errorf("winning rank instant malformed: %+v", f.TraceEvents[2])
	}
	last := int64(-1)
	for i, ev := range f.TraceEvents {
		if ev.Ts <= last && ev.Ph != "X" {
			t.Errorf("event %d ts %d not increasing past %d", i, ev.Ts, last)
		}
		if ev.Ts > last {
			last = ev.Ts
		}
	}
}

// TestTracerInjectedClock checks timestamps come from the supplied
// clock, rebased to the first event.
func TestTracerInjectedClock(t *testing.T) {
	base := time.Unix(1000, 0)
	step := 0
	clock := func() time.Time {
		step++
		return base.Add(time.Duration(step) * time.Millisecond)
	}
	tr := NewTracer(clock)
	tr.Observe(rankEvent(Rank{}))
	tr.Observe(rankEvent(Rank{}))
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Ts int64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &f); err != nil {
		t.Fatal(err)
	}
	if f.TraceEvents[0].Ts != 0 || f.TraceEvents[1].Ts != 1000 {
		t.Errorf("ts = %d,%d; want 0,1000 (rebased ms->µs)", f.TraceEvents[0].Ts, f.TraceEvents[1].Ts)
	}
}

// TestTracerInterleavedSpans pins span pairing by id: two concurrent
// runs sharing one tracer open spans with the same name, and each end
// closes its own begin — interleaved (begin A, begin B, end A, end B)
// as well as nested — so each span gets its own duration.
func TestTracerInterleavedSpans(t *testing.T) {
	type span struct{ ts, dur int64 }
	for _, tc := range []struct {
		name   string
		events []Event
		want   []span // in begin order
	}{
		{"interleaved", []Event{
			beginEvent("search", 1), beginEvent("search", 2),
			endEvent("search", 1), rankEvent(Rank{}), endEvent("search", 2),
		}, []span{{1, 2}, {2, 3}}},
		{"nested", []Event{
			beginEvent("search", 3), beginEvent("search", 4),
			endEvent("search", 4), rankEvent(Rank{}), endEvent("search", 3),
		}, []span{{1, 4}, {2, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracer(nil)
			for _, e := range tc.events {
				tr.Observe(e)
			}
			var got []span
			for _, ev := range traceEvents(t, tr) {
				if ev.Ph == "X" {
					got = append(got, span{ev.Ts, ev.Dur})
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("spans (ts, dur) = %v, want %v", got, tc.want)
			}
		})
	}
	// An end whose begin the tracer never saw is dropped.
	tr := NewTracer(nil)
	tr.Observe(endEvent("search", 9))
	if tr.Len() != 0 {
		t.Errorf("unmatched end recorded %d events", tr.Len())
	}
}

// TestTracerRecordsAcrossBlocks: a span whose end arrives several
// record blocks after its begin still gets its duration, and the
// written events keep arrival order, each rank with its own args.
func TestTracerRecordsAcrossBlocks(t *testing.T) {
	tr := NewTracer(nil)
	tr.Observe(beginEvent("search", 1))
	const ranks = 3*recBlock + 5
	for i := 0; i < ranks; i++ {
		tr.Observe(rankEvent(Rank{Rank: i, Tries: i%4 + 1, Worker: i % 3, Steps: int64(i)}))
	}
	tr.Observe(endEvent("search", 1))
	if got := tr.Len(); got != ranks+1 {
		t.Fatalf("Len = %d, want %d", got, ranks+1)
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != ranks+1 {
		t.Fatalf("%d events written, want %d", len(f.TraceEvents), ranks+1)
	}
	if span := f.TraceEvents[0]; span.Name != "search" || span.Ts != 1 || span.Dur != ranks+1 {
		t.Errorf("span = %+v, want search at ts 1 lasting %d ticks", span, ranks+1)
	}
	for i, ev := range f.TraceEvents[1:] {
		want := Rank{Rank: i, Tries: i%4 + 1, Worker: i % 3, Steps: int64(i)}
		if ev.Ts != int64(i+2) || ev.Tid != want.Worker+1 || ev.Args == nil || *ev.Args != want {
			t.Fatalf("event %d = %+v (args %+v), want rank %+v at ts %d", i+1, ev, ev.Args, want, i+2)
		}
	}
}

// TestTracerNilReceiver pins that a nil tracer is a no-op at every
// call site, so instrumented code needs no guards, and that it writes
// the empty trace envelope.
func TestTracerNilReceiver(t *testing.T) {
	var tr *Tracer
	tr.Observe(beginEvent("x", 1))
	tr.Observe(endEvent("x", 1))
	tr.Observe(rankEvent(Rank{}))
	if tr.Len() != 0 {
		t.Error("nil tracer not empty")
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n"; got != want {
		t.Errorf("nil tracer wrote %q, want %q", got, want)
	}
}
