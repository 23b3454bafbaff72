package interp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// rngPinSeeds are the seeds whose Intn stream is pinned against
// math/rand: every seed the process-wide table holds and the first
// seeds past it, the normalization edge cases (±1, the LCG modulus and
// its neighbours, the int64 extremes) plus 300 seeds drawn from a
// fixed math/rand stream.
func rngPinSeeds() []int64 {
	var seeds []int64
	for s := int64(0); s <= seededSlots+6; s++ {
		seeds = append(seeds, s)
	}
	seeds = append(seeds,
		-1,
		lcgMod-1, lcgMod, lcgMod+1,
		-(lcgMod - 1), -lcgMod, -(lcgMod + 1),
		2*lcgMod, 89482311,
		math.MinInt64, math.MinInt64+1, math.MaxInt64, math.MaxInt64-1,
	)
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
	var reused RNG
	reused.Seed(12345)
	reused.Intn(17)
	for _, seed := range rngPinSeeds() {
		want := rand.New(rand.NewSource(seed))
		var fresh RNG
		fresh.Seed(seed)
		reused.Seed(seed)
		for i := 0; i < 3000; i++ {
			n := bounds[i%len(bounds)]
			w := want.Intn(n)
			if g := fresh.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
			if g := reused.Intn(n); g != w {
				t.Fatalf("seed %d draw %d (reseeded): Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
		}
	}
}

// TestSeedTableConcurrentFill empties the process-wide seed table and
// seeds every slot from 8 goroutines at once: each generator must
// start from the register the arithmetic seeding computes, whichever
// goroutine filled the slot.
func TestSeedTableConcurrentFill(t *testing.T) {
	for i := range seeded {
		seeded[i].Store(nil)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	bad := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bad[g] = -1
			var r RNG
			var want [rngLen]int64
			for k := 0; k < seededSlots; k++ {
				s := int64((k + 8*g) % seededSlots)
				r.Seed(s)
				seedWords(&want, s, rngMask)
				if r.vec != want {
					bad[g] = s
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, s := range bad {
		if s >= 0 {
			t.Errorf("goroutine %d: Seed(%d) started from a register other than the computed one", g, s)
		}
	}
}

// BenchmarkRNGSeed times Seed from the table and, past it, by the
// arithmetic seeding.
func BenchmarkRNGSeed(b *testing.B) {
	b.Run("table", func(b *testing.B) {
		var r RNG
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i % seededSlots))
		}
	})
	b.Run("computed", func(b *testing.B) {
		var r RNG
		for i := 0; i < b.N; i++ {
			r.Seed(seededSlots + int64(i))
		}
	})
}

func BenchmarkMathRandSeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rand.New(rand.NewSource(int64(i)))
	}
}
