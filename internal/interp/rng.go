package interp

import (
	"math/rand"
	"sync/atomic"
)

// RNG is the stress generator: math/rand's default source
// (rand.NewSource) re-created here so that a stress attempt can afford
// one and the machine can draw from it between steps
// (Machine.RunRandom). It is an additive lagged Fibonacci generator,
// x[n] = x[n-607] + x[n-273] mod 2^64, whose 607-word register is
// seeded from a Park–Miller LCG, and it produces exactly
// rand.New(rand.NewSource(seed))'s stream, so the stress seeds,
// attempt counts and failure dumps are the ones math/rand gave. It
// seeds in a fraction of math/rand's time. math/rand walks the LCG
// serially, 1,841 dependent steps per seed. Seed reads the k-th LCG
// value directly as A^k·seed mod (2^31−1) from a shared power table,
// so the multiplications are independent of one another, and for
// seeds 0 to 63, the ones stress campaigns start from, it copies the
// register from a process-wide table instead (see seeded). The zero
// RNG is not seeded; call Seed before drawing.
type RNG struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen = 607
	rngTap = 273
	// lcgMod and lcgMul are the seeding LCG's modulus and multiplier:
	// x[n+1] = lcgMul·x[n] mod lcgMod.
	lcgMod = 1<<31 - 1
	lcgMul = 48271
	// lcgSkip is the number of LCG values the seeding discards before
	// the first register word; each word then consumes three values.
	lcgSkip = 20
	lcgLen  = lcgSkip + 3*rngLen
)

// lcgPow[i] holds the factors that take a seed to the three LCG values
// of register word i: lcgMul^k mod lcgMod for k = lcgSkip+3i+1 ..
// lcgSkip+3i+3.
var lcgPow = func() *[rngLen][3]uint64 {
	var p [rngLen][3]uint64
	x := uint64(1)
	for k := 1; k <= lcgLen; k++ {
		x = x * lcgMul % lcgMod
		if j := k - lcgSkip - 1; j >= 0 {
			p[j/3][j%3] = x
		}
	}
	return &p
}()

// rngMask is math/rand's seed mask (its rngCooked table): word i of a
// freshly seeded register is the LCG-derived word XOR rngMask[i]. It
// is recovered once from math/rand's own output stream rather than
// copied: for a register v seeded with a known seed, the first 607
// outputs of Uint64 determine v exactly (see recoverRegister), and
// rngMask[i] = v[i] XOR the LCG word of that seed.
var rngMask = func() *[rngLen]int64 {
	const probe = 1
	src := rand.NewSource(probe).(rand.Source64)
	var out [rngLen + 1]uint64
	for j := 1; j <= rngLen; j++ {
		out[j] = src.Uint64()
	}
	v := recoverRegister(&out)
	var lcg [rngLen]int64
	seedWords(&lcg, probe, new([rngLen]int64))
	for i := range v {
		v[i] ^= lcg[i]
	}
	return v
}()

// recoverRegister returns the register a fresh source held, given its
// first 607 outputs out[1..607]. Output j adds the words at feed
// position 334−j and tap position 607−j (mod 607) and stores the sum
// at the feed position. For j ≤ 273 both words are untouched seeds;
// for 274 ≤ j ≤ 607 the feed word is an untouched seed and the tap
// word is output j−273.
func recoverRegister(out *[rngLen + 1]uint64) *[rngLen]int64 {
	var v [rngLen]int64
	for j := rngTap + 1; j <= rngLen; j++ {
		feed := (rngLen - rngTap - j + rngLen) % rngLen
		v[feed] = int64(out[j] - out[j-rngTap])
	}
	for j := 1; j <= rngTap; j++ {
		v[rngLen-rngTap-j] = int64(out[j]) - v[rngLen-j]
	}
	return &v
}

// seedValue normalizes a seed the way math/rand does: reduced into
// [1, lcgMod), with 0 replaced by math/rand's fixed substitute.
func seedValue(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lcgMulMod returns a·x mod lcgMod for a, x < lcgMod, taking the
// modulus by folding (2^31 ≡ 1 mod lcgMod).
func lcgMulMod(a, x uint64) uint64 {
	p := a * x // < 2^62
	p = p&lcgMod + p>>31
	p = p&lcgMod + p>>31
	if p >= lcgMod {
		p -= lcgMod
	}
	return p
}

// seedWords sets vec to seed's register words XOR mask. Word i packs
// three consecutive LCG values, after the first lcgSkip, at bits 40,
// 20 and 0.
func seedWords(vec *[rngLen]int64, seed int64, mask *[rngLen]int64) {
	x, pow := seedValue(seed), lcgPow // a local pow is not reloaded after each store to vec
	for i := range vec {
		p := &pow[i]
		w := lcgMulMod(p[0], x)<<40 ^ lcgMulMod(p[1], x)<<20 ^ lcgMulMod(p[2], x)
		vec[i] = int64(w) ^ mask[i]
	}
}

// seededSlots is the number of seeds, 0 up to seededSlots−1, whose
// initial register Seed copies from seeded. Every stress campaign
// tries seeds 0, 1, 2 and on, and the Table 2 bugs need at most 28.
const seededSlots = 64

// seeded[s] is the register rand.NewSource(s) starts from, filled on
// the first Seed(s) in the process and immutable from then on. Two
// goroutines seeding s at once may both compute it; the one that loses
// the swap uses its own copy, which is identical.
var seeded [seededSlots]atomic.Pointer[[rngLen]int64]

// Seed resets the source to seed's initial state, equal to
// rand.NewSource(seed)'s, without allocating once seed's slot is
// filled.
func (r *RNG) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap
	if uint64(seed) >= seededSlots {
		seedWords(&r.vec, seed, rngMask)
		return
	}
	v := seeded[seed].Load()
	if v == nil {
		v = new([rngLen]int64)
		seedWords(v, seed, rngMask)
		seeded[seed].CompareAndSwap(nil, v)
	}
	r.vec = *v
}

// uint64 is rngSource.Uint64 of math/rand.
func (r *RNG) uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// int63 is Rand.Int63.
func (r *RNG) int63() int64 { return int64(r.uint64() & (1<<63 - 1)) }

// Intn is Rand.Intn: Int31n's rejection sampling for every n that fits
// in an int32, Int63n's beyond. n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 1<<31-1 {
		n := int32(n)
		if n&(n-1) == 0 {
			return int(int32(r.int63()>>32) & (n - 1))
		}
		max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
		v := int32(r.int63() >> 32)
		for v > max {
			v = int32(r.int63() >> 32)
		}
		return int(v % n)
	}
	n64 := int64(n)
	if n64&(n64-1) == 0 {
		return int(r.int63() & (n64 - 1))
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n64))
	v := r.int63()
	for v > max {
		v = r.int63()
	}
	return int(v % n64)
}
