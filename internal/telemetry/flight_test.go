package telemetry

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestFlightRecorderRing checks the bounded overwrite semantics:
// capacity n retains the newest n records oldest-first and counts the
// overwritten history.
func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Observe(Event{Kind: KindTrial, Trial: Trial{Rank: i}})
	}
	f.Observe(Event{Kind: KindStageBegin, Stage: "search", Span: 1}) // not recorded
	f.Observe(Event{Kind: KindFold, Progress: Progress{Combos: 9, Committed: 1, Tries: 3}})
	f.Observe(Event{Kind: KindFold, Progress: Progress{Combos: 9, Committed: 2, Tries: 5, Found: true}})

	log := f.Snapshot()
	if log == nil {
		t.Fatal("snapshot nil")
	}
	if len(log.Trials) != 4 {
		t.Fatalf("retained %d trials, want 4", len(log.Trials))
	}
	for i, tr := range log.Trials {
		if tr.Rank != 6+i {
			t.Errorf("trials[%d].Rank = %d, want %d (oldest-first tail)", i, tr.Rank, 6+i)
		}
	}
	if log.TrialsDropped != 6 {
		t.Errorf("TrialsDropped = %d, want 6", log.TrialsDropped)
	}
	want := []Decision{
		{Kind: "commit", Committed: 1, Tries: 3},
		{Kind: "winner", Committed: 2, Tries: 5, Found: true},
	}
	if !reflect.DeepEqual(log.Decisions, want) {
		t.Errorf("decisions = %+v, want %+v", log.Decisions, want)
	}

	b, err := json.Marshal(log)
	if err != nil {
		t.Fatalf("flight log not JSON-able: %v", err)
	}
	if !strings.HasPrefix(string(b), `{"trials":[{"rank":6,"trial":0,"worker":0,"steps":0},`) {
		t.Errorf("flight log JSON = %s", b)
	}
}

// TestFlightDecisionKinds pins how fold heartbeats are labeled: the
// final heartbeat of a cancelled search reads "cancelled", not
// "cutoff", even though it too stops short of the worklist.
func TestFlightDecisionKinds(t *testing.T) {
	for _, tc := range []struct {
		p    Progress
		want string
	}{
		{Progress{Combos: 9, Committed: 3, Tries: 4}, "commit"},
		{Progress{Combos: 9, Committed: 4, Tries: 6, Found: true}, "winner"},
		{Progress{Combos: 9, Committed: 4, Tries: 6, Found: true, Done: true}, "done"},
		{Progress{Combos: 9, Committed: 9, Tries: 12, Done: true}, "done"},
		{Progress{Combos: 9, Committed: 5, Tries: 8, Done: true}, "cutoff"},
		{Progress{Combos: 9, Committed: 5, Tries: 8, Done: true, Cancelled: true}, "cancelled"},
	} {
		f := NewFlightRecorder(4)
		f.Observe(Event{Kind: KindFold, Progress: tc.p})
		if got := f.Snapshot().Decisions[0].Kind; got != tc.want {
			t.Errorf("%+v labeled %q, want %q", tc.p, got, tc.want)
		}
	}
}

// TestFlightRecorderNilAndEmpty pins the attach-unconditionally
// contract: nil recorder and empty recorder both snapshot to nil.
func TestFlightRecorderNilAndEmpty(t *testing.T) {
	var f *FlightRecorder
	f.Observe(Event{Kind: KindTrial})
	f.Observe(Event{Kind: KindFold})
	if f.Snapshot() != nil {
		t.Error("nil recorder snapshot not nil")
	}
	if NewFlightRecorder(8).Snapshot() != nil {
		t.Error("empty recorder snapshot not nil")
	}
}
