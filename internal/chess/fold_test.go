package chess

import (
	"context"
	"reflect"
	"testing"

	"heisendump/internal/telemetry"
)

// TestFoldRankSummaries: the fold emits one event per committed rank,
// in rank order whatever order the outcomes arrive in. Each carries
// the rank's folded tries (its trials, capped at the budget left),
// its steps and worker, and Found only on the committed winner: a
// find past the budget commits as a cutoff, not found.
func TestFoldRankSummaries(t *testing.T) {
	type fold struct {
		rank telemetry.Rank
		p    telemetry.Progress
	}
	for _, tc := range []struct {
		name     string
		maxTries int
		outcomes []*comboOutcome // recorded in this order
		want     []fold
	}{
		{"find past the budget", 5, []*comboOutcome{
			{rank: 1, worker: 0, trials: 4, steps: 40, foundAt: 3},
			{rank: 0, worker: 1, trials: 3, steps: 30, foundAt: -1},
		}, []fold{
			{telemetry.Rank{Rank: 0, Tries: 3, Steps: 30, Worker: 1}, telemetry.Progress{Combos: 3, Committed: 1, Tries: 3}},
			{telemetry.Rank{Rank: 1, Tries: 2, Steps: 40, Worker: 0}, telemetry.Progress{Combos: 3, Committed: 2, Tries: 5}},
		}},
		{"winner", 0, []*comboOutcome{
			{rank: 0, worker: 1, trials: 2, steps: 20, foundAt: -1},
			{rank: 1, worker: 0, trials: 2, steps: 25, foundAt: 1},
		}, []fold{
			{telemetry.Rank{Rank: 0, Tries: 2, Steps: 20, Worker: 1}, telemetry.Progress{Combos: 3, Committed: 1, Tries: 2}},
			{telemetry.Rank{Rank: 1, Tries: 2, Steps: 25, Worker: 0, Found: true}, telemetry.Progress{Combos: 3, Committed: 2, Tries: 4, Found: true}},
		}},
	} {
		var got []fold
		st := &searchState{
			s: &Searcher{Opts: Options{Observers: telemetry.Observers{telemetry.ObserverFunc(func(e telemetry.Event) {
				got = append(got, fold{e.Rank, e.Progress})
			})}}},
			ctx:      context.Background(),
			wl:       &worklist{size: 3},
			maxTries: tc.maxTries,
		}
		for _, out := range tc.outcomes {
			st.record(out.rank, out)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: fold events\n  got  %+v\n  want %+v", tc.name, got, tc.want)
		}
		if !st.decided.Load() {
			t.Errorf("%s: the fold is not decided", tc.name)
		}
	}
}
