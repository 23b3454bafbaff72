package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestTracerSyntheticClock checks that a nil clock produces strictly
// increasing synthetic timestamps — the mode deterministic callers
// use, with zero wall-clock reads.
func TestTracerSyntheticClock(t *testing.T) {
	tr := NewTracer(nil, 1)
	end := tr.StageBegin("align")
	tr.Trial(TrialEvent{Rank: 1, Worker: 0, Steps: 10})
	end()
	tr.Trial(TrialEvent{Rank: 2, Worker: 1, Steps: 20, Found: true})

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
	if f.TraceEvents[2].Args == nil || !f.TraceEvents[2].Args.Found {
		t.Errorf("found trial args malformed: %+v", f.TraceEvents[2])
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

// TestTracerSampling checks the sampling knob: sampleEvery n keeps
// one trial event in n, and never drops stage spans.
func TestTracerSampling(t *testing.T) {
	tr := NewTracer(nil, 10)
	end := tr.StageBegin("search")
	for i := 0; i < 100; i++ {
		tr.Trial(TrialEvent{Rank: i})
	}
	end()
	if got := tr.Len(); got != 11 { // 1 span + 100/10 trials
		t.Errorf("event count = %d, want 11", got)
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
	tr := NewTracer(clock, 1)
	tr.Trial(TrialEvent{})
	tr.Trial(TrialEvent{})
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

// TestTracerNilReceiver pins that a nil tracer is a no-op at every
// call site, so instrumented code needs no guards.
func TestTracerNilReceiver(t *testing.T) {
	var tr *Tracer
	end := tr.StageBegin("x")
	end()
	tr.Trial(TrialEvent{})
	if tr.Len() != 0 {
		t.Error("nil tracer not empty")
	}
}
