package sched

import "testing"

// TestRandomSchedulerSeedsInPlace: Random.Seed rewinds a scheduler to
// exactly NewRandom's state.
func TestRandomSchedulerSeedsInPlace(t *testing.T) {
	r := NewRandom(3)
	for i := 0; i < 50; i++ {
		r.rng.Intn(5)
	}
	r.Seed(9)
	if r.rng != NewRandom(9).rng {
		t.Fatal("Seed(9) after draws differs from NewRandom(9)")
	}
}
