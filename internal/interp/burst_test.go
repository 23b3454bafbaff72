package interp_test

import (
	"math"
	"reflect"
	"testing"

	"heisendump/internal/interp"
)

// burstSrc's main runs 15 steps, one per statement and four in its
// call of f: a call (step 4) and a spawn (step 9) lie between sync
// operations, and the callee's first instruction is one. The sync
// operations are steps 2, 5, 7, 10, 12, 13 and 15; the last is a
// release of a lock main does not hold, which faults. The spawned
// thread never runs.
const burstSrc = `
program burst;
global int x;
lock L;
lock M;
func f() {
    acquire(M);
    x = 3;
    release(M);
}
func g() {
    x = 9;
}
func main() {
    x = 1;
    acquire(L);
    x = 2;
    f();
    spawn g();
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
// right after it. Calls, returns and spawns never end a burst: at the
// horizon the call of f stops before f's acquire, and the return and
// the spawn run on to the release after them. Each run below bursts
// main to its crash under one horizon; the stops are those of taking
// the contract's decisions before and after every single step.
func TestRunBurstStopsAtHorizon(t *testing.T) {
	cp := mustCompile(t, burstSrc)
	// Per horizon, the step count at the end of each burst.
	tail := []int64{9, 10, 11, 12, 13, 14, 15}
	cases := []struct {
		horizon int
		stops   []int64
	}{
		{0, append([]int64{1, 2, 4, 5, 6, 7}, tail...)},
		{1, append([]int64{2, 4, 5, 6, 7}, tail...)},
		{2, append([]int64{5, 6, 7}, tail...)},
		{3, append([]int64{7}, tail...)},
		{4, []int64{10, 11, 12, 13, 14, 15}},
		{5, []int64{12, 13, 14, 15}},
		{6, []int64{13, 14, 15}},
		{7, []int64{15}},
		{math.MaxInt, []int64{15}},
	}
	releases := map[int64]bool{7: true, 10: true, 13: true, 15: true}
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
		m2 := interp.New(cp, nil)
		if got := stepStops(t, m2, c.horizon); !reflect.DeepEqual(got, c.stops) {
			t.Fatalf("horizon %d: stepping one instruction at a time stops at %v, want %v", c.horizon, got, c.stops)
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

// stepStops runs main to its crash one Step at a time and returns the
// steps at which the horizon contract ends a burst, deciding before and
// after every step: after a sync operation that leaves Syncs at or past
// horizon, before a sync instruction once Syncs is there and the burst
// has taken a step, and at the crash.
func stepStops(t *testing.T, m *interp.Machine, horizon int) []int64 {
	t.Helper()
	var stops []int64
	fresh := true // no step taken since the last stop
	for !m.Crashed() {
		th := m.Threads[0]
		_, acquire, release := th.SyncOp()
		sync := acquire || release
		if !fresh && sync && th.Syncs >= horizon {
			stops = append(stops, m.TotalSteps)
			fresh = true
			continue
		}
		if ok, err := m.Step(0); !ok || err != nil {
			t.Fatalf("horizon %d: step after step %d: ok=%v err=%v", horizon, m.TotalSteps, ok, err)
		}
		fresh = false
		if m.Crashed() || (sync && th.Syncs >= horizon) {
			stops = append(stops, m.TotalSteps)
			fresh = true
		}
	}
	return stops
}
