package seeded

import (
	"math"
	"math/rand"
	"testing"
)

// drawsPerSeed covers more than two full wraps of the 607-word state,
// so every seeded word feeds the output and is fed back at least once.
const drawsPerSeed = 3000

func identitySeeds() []int64 {
	seeds := []int64{
		0, 1, -1,
		lehmerMod, -lehmerMod, 2 * lehmerMod,
		zeroSeed,
		math.MinInt64, math.MaxInt64,
	}
	r := rand.New(rand.NewSource(20140909))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// sameStream fails t unless got and want produce identical draws,
// interleaving every method the repository uses so each path through
// rand.Rand consumes the source the same way.
func sameStream(t *testing.T, seed int64, got, want *rand.Rand) {
	t.Helper()
	for i := 0; i < drawsPerSeed; i++ {
		var g, w uint64
		switch i % 5 {
		case 0:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 3:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 4:
			n := 1 + i%1000
			g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
		}
		if g != w {
			t.Fatalf("seed %d, draw %d (kind %d): got %#x, math/rand %#x", seed, i, i%5, g, w)
		}
	}
}

func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range identitySeeds() {
		sameStream(t, seed, New(seed), rand.New(rand.NewSource(seed)))
	}
}

func TestReseedMatchesFresh(t *testing.T) {
	seeds := identitySeeds()
	used := New(seeds[len(seeds)-1])
	for _, seed := range seeds {
		for i := 0; i < 1000; i++ {
			used.Uint64()
		}
		used.Seed(seed)
		sameStream(t, seed, used, rand.New(rand.NewSource(seed)))
	}
}

var sinkRand *rand.Rand

// BenchmarkSeed compares constructing and seeding a generator here
// against math/rand's rand.New(rand.NewSource(seed)).
func BenchmarkSeed(b *testing.B) {
	b.Run("seeded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRand = New(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRand = rand.New(rand.NewSource(int64(i)))
		}
	})
}
