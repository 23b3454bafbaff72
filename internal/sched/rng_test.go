package sched

import (
	"math"
	"math/rand"
	"testing"
)

// rngPinSeeds are the seeds whose Intn stream is pinned against
// math/rand: the normalization edge cases (0, ±1, the LCG modulus and
// its neighbours, the int64 extremes) plus 300 seeds drawn from a
// fixed math/rand stream.
func rngPinSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2,
		lcgMod - 1, lcgMod, lcgMod + 1,
		-(lcgMod - 1), -lcgMod, -(lcgMod + 1),
		2 * lcgMod, 89482311,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	src := rand.New(rand.NewSource(20260101))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, src.Int63()-src.Int63())
	}
	return seeds
}

// TestRandomMatchesMathRand pins the stress generator to math/rand:
// for every pinned seed, Intn over a spread of bounds (powers of two,
// the thread counts a run sees, bounds that force rejection sampling
// and the int64 range) returns rand.New(rand.NewSource(seed))'s
// values, first from a fresh generator and then from one reseeded in
// place after drawing from another seed.
func TestRandomMatchesMathRand(t *testing.T) {
	bounds := []int{1, 2, 3, 4, 5, 7, 8, 13, 64, 1000, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<62 + 3}
	var reused rngSource
	reused.seed(12345)
	reused.intn(17)
	for _, seed := range rngPinSeeds() {
		want := rand.New(rand.NewSource(seed))
		var fresh rngSource
		fresh.seed(seed)
		reused.seed(seed)
		for i := 0; i < 3000; i++ {
			n := bounds[i%len(bounds)]
			w := want.Intn(n)
			if g := fresh.intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
			if g := reused.intn(n); g != w {
				t.Fatalf("seed %d draw %d (reseeded): Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
		}
	}
}

// TestRandomSchedulerSeedsInPlace: Random.Seed rewinds a scheduler to
// exactly NewRandom's state.
func TestRandomSchedulerSeedsInPlace(t *testing.T) {
	r := NewRandom(3)
	for i := 0; i < 50; i++ {
		r.rng.intn(5)
	}
	r.Seed(9)
	if r.rng != NewRandom(9).rng {
		t.Fatal("Seed(9) after draws differs from NewRandom(9)")
	}
}

func BenchmarkRandomSeed(b *testing.B) {
	var r Random
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
	}
}

func BenchmarkMathRandSeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rand.New(rand.NewSource(int64(i)))
	}
}
