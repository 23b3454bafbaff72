package telemetry

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestFlightRecorderRing checks the bounded overwrite semantics:
// capacity n retains the newest n fold events oldest-first, lists the
// committed ranks among them and every decision, and counts the
// overwritten history.
func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Observe(Event{Kind: KindFold,
			Rank:     Rank{Rank: i, Tries: 2, Steps: 30, Worker: i % 2, Found: i == 9},
			Progress: Progress{Combos: 12, Committed: i + 1, Tries: 2 * (i + 1), Found: i == 9}})
	}
	f.Observe(Event{Kind: KindStageBegin, Stage: "search", Span: 1}) // not recorded
	f.Observe(Event{Kind: KindFold, Progress: Progress{Combos: 12, Committed: 10, Tries: 20, Found: true, Done: true}})

	log := f.Snapshot()
	if log == nil {
		t.Fatal("snapshot nil")
	}
	wantRanks := []Rank{
		{Rank: 7, Tries: 2, Steps: 30, Worker: 1},
		{Rank: 8, Tries: 2, Steps: 30, Worker: 0},
		{Rank: 9, Tries: 2, Steps: 30, Worker: 1, Found: true},
	}
	if !reflect.DeepEqual(log.Ranks, wantRanks) {
		t.Errorf("ranks = %+v, want %+v (oldest-first tail, Done excluded)", log.Ranks, wantRanks)
	}
	if log.Dropped != 7 {
		t.Errorf("Dropped = %d, want 7", log.Dropped)
	}
	want := []Decision{
		{Kind: "commit", Committed: 8, Tries: 16},
		{Kind: "commit", Committed: 9, Tries: 18},
		{Kind: "winner", Committed: 10, Tries: 20, Found: true},
		{Kind: "done", Committed: 10, Tries: 20, Found: true},
	}
	if !reflect.DeepEqual(log.Decisions, want) {
		t.Errorf("decisions = %+v, want %+v", log.Decisions, want)
	}

	b, err := json.Marshal(log)
	if err != nil {
		t.Fatalf("flight log not JSON-able: %v", err)
	}
	if !strings.HasPrefix(string(b), `{"ranks":[{"rank":7,"tries":2,"steps":30,"worker":1},`) ||
		!strings.HasSuffix(string(b), `],"dropped":7}`) {
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
	f.Observe(Event{Kind: KindFold})
	if f.Snapshot() != nil {
		t.Error("nil recorder snapshot not nil")
	}
	f = NewFlightRecorder(8)
	f.Observe(Event{Kind: KindStageBegin, Stage: "search", Span: 1})
	if f.Snapshot() != nil {
		t.Error("recorder with no fold event snapshot not nil")
	}
}
