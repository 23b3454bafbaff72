package interp_test

import (
	"math"
	"reflect"
	"testing"

	"heisendump/internal/interp"
)

// burstSrc's main runs 13 instructions, one per statement, and its
// sync operations are steps 2, 4, 5, 8, 10, 11 and 13; the last is a
// release of a lock main does not hold, which faults.
const burstSrc = `
program burst;
global int x;
lock L;
lock M;
func main() {
    x = 1;
    acquire(L);
    x = 2;
    acquire(M);
    release(M);
    x = 3;
    x = 4;
    release(L);
    x = 5;
    acquire(L);
    release(L);
    x = 6;
    release(M);
    x = 7;
}
`

// TestRunBurstStopsAtHorizon pins RunBurst's horizon contract: a burst
// runs through sync operations while the thread's Syncs count is below
// the horizon, stops right after the operation that brings the count
// to it, and from then on stops before every sync instruction and
// right after it. Each run below bursts main to its crash under one
// horizon.
func TestRunBurstStopsAtHorizon(t *testing.T) {
	cp := mustCompile(t, burstSrc)
	// Per horizon, the step count at the end of each burst.
	tail := []int64{5, 7, 8, 9, 10, 11, 12, 13}
	cases := []struct {
		horizon int
		stops   []int64
	}{
		{0, append([]int64{1, 2, 3, 4}, tail...)},
		{1, append([]int64{2, 3, 4}, tail...)},
		{2, append([]int64{4}, tail...)},
		{3, tail},
		{4, []int64{8, 9, 10, 11, 12, 13}},
		{5, []int64{10, 11, 12, 13}},
		{6, []int64{11, 12, 13}},
		{7, []int64{13}},
		{math.MaxInt, []int64{13}},
	}
	releases := map[int64]bool{5: true, 8: true, 11: true, 13: true}
	m := interp.New(cp, nil)
	for _, c := range cases {
		m.Reset(cp, nil)
		var stops []int64
		for !m.Crashed() {
			ok, err := m.RunBurst(0, 0, c.horizon)
			if !ok || err != nil {
				t.Fatalf("horizon %d: burst after step %d: ok=%v err=%v", c.horizon, m.TotalSteps, ok, err)
			}
			stops = append(stops, m.TotalSteps)
			if m.Released() != releases[m.TotalSteps] {
				t.Fatalf("horizon %d: Released() = %v after step %d", c.horizon, m.Released(), m.TotalSteps)
			}
		}
		if !reflect.DeepEqual(stops, c.stops) {
			t.Fatalf("horizon %d: bursts ended at steps %v, want %v", c.horizon, stops, c.stops)
		}
		// The faulting release was a step taken, so it counts.
		if got := m.Threads[0].Syncs; got != 7 {
			t.Fatalf("horizon %d: Syncs = %d after the faulting release, want 7", c.horizon, got)
		}
		// A burst that executes nothing does not read as ending on the
		// release before it.
		if ok, err := m.RunBurst(0, 0, c.horizon); ok || err != nil || m.Released() {
			t.Fatalf("horizon %d: burst on the crashed machine: ok=%v err=%v Released=%v", c.horizon, ok, err, m.Released())
		}
	}
}
