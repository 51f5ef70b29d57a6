// Package seeded builds the repository's deterministic random
// generators. New(seed) yields exactly the stream of
// rand.New(rand.NewSource(seed)): the source is math/rand's additive
// lagged-Fibonacci generator, drawing bit for bit the same Int63 and
// Uint64 values. Only seeding differs. math/rand fills the 607-word
// state by 1,841 dependent Lehmer steps x ← 48271·x mod (2³¹−1); here
// each word's three Lehmer values are computed straight from the seed
// as x_k = (48271^k mod (2³¹−1))·x₀ mod (2³¹−1), from a power table
// built once at start-up. The steps no longer depend on each other,
// which makes a fresh generator three to four times cheaper to seed
// (BenchmarkSeed). Profiling seeds one per (kernel, config,
// iteration); math/rand's seeding had been 30% of the offline stage's
// CPU.
package seeded

import "math/rand"

const (
	rngLen = 607 // lagged-Fibonacci state words
	rngTap = 273 // second lag

	// lehmerMod and lehmerMul define math/rand's seeding generator
	// x ← lehmerMul·x mod lehmerMod.
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271
	// lehmerSkip is how many Lehmer values math/rand's Seed discards
	// before the first state word.
	lehmerSkip = 20
	// zeroSeed replaces a seed that is 0 mod lehmerMod, as in math/rand.
	zeroSeed = 89482311
)

// lehmerPow[j] is lehmerMul^(lehmerSkip+1+j) mod lehmerMod: the
// multiplier that takes the reduced seed to the j-th Lehmer value
// folded into the state. State word i uses entries 3i, 3i+1 and 3i+2.
var lehmerPow [3 * rngLen]uint64

func init() {
	p := uint64(1)
	for i := 0; i < lehmerSkip; i++ {
		p = p * lehmerMul % lehmerMod
	}
	for j := range lehmerPow {
		p = p * lehmerMul % lehmerMod
		lehmerPow[j] = p
	}
}

// New returns a generator whose every draw equals that of
// rand.New(rand.NewSource(seed)), including after a later
// (*rand.Rand).Seed. Like rand.NewSource's, it is not safe for
// concurrent use.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source is math/rand's rngSource with a jump-ahead Seed.
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// mulMod returns a·b mod lehmerMod for a, b < lehmerMod. Since
// 2³¹ ≡ 1 (mod 2³¹−1), folding the product's high bits onto its low
// ones leaves a congruent v < 2·lehmerMod. Then (v+1)>>31 is 1 exactly
// when v ≥ lehmerMod, and adding it before masking off bit 31
// subtracts lehmerMod.
func mulMod(a, b uint64) uint64 {
	v := a * b
	v = v&lehmerMod + v>>31
	return (v + (v+1)>>31) & lehmerMod
}

// Seed sets the state math/rand's rngSource.Seed would set for seed.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i := range s.vec {
		u := int64(mulMod(lehmerPow[3*i], x)) << 40
		u ^= int64(mulMod(lehmerPow[3*i+1], x)) << 20
		u ^= int64(mulMod(lehmerPow[3*i+2], x))
		s.vec[i] = u ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
