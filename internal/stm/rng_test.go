package stm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rngEdgeSeeds are the seeds math/rand's normalisation treats specially:
// zero and its multiples of 2³¹−1, the int64 extremes, and negatives.
var rngEdgeSeeds = []int64{
	0, 1, -1, int32max, -int32max, 2 * int32max, int32max - 1, int32max + 1,
	math.MinInt64, math.MaxInt64, 1 << 62, -1 << 62, 89482311,
}

// matchDraws fails t at the first of n Uint64 draws where got departs
// from math/rand's source for seed.
func matchDraws(t *testing.T, got *source, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	got.Seed(seed)
	for i := 0; i < n; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand %#x", seed, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand: the lazily seeded source yields math/rand's
// stream bit for bit. 1 500 draws cross the tap boundary (273), the feed
// boundary (334) and the register's wrap (607) twice over; one source is
// re-seeded throughout, as the pool re-seeds a recycled generator. Then
// every rand.Rand method GenOps uses runs through pooled generators.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := slices.Clone(rngEdgeSeeds)
	pick := rand.New(rand.NewSource(2024))
	for len(seeds) < 10_000 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	src := new(source)
	for _, seed := range seeds {
		matchDraws(t, src, seed, 1500)
	}
	for _, seed := range rngEdgeSeeds {
		// Int63 masks the same stream.
		want := rand.NewSource(seed)
		src.Seed(seed)
		for i := 0; i < 700; i++ {
			if g, w := src.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, i, g, w)
			}
		}
	}
	for i, seed := range append(slices.Clone(rngEdgeSeeds), 7, 42, -7, 1_000_003) {
		got := seededRand(seed)
		want := rand.New(rand.NewSource(seed))
		gz := rand.NewZipf(got, 1.2, 1, 63)
		wz := rand.NewZipf(want, 1.2, 1, 63)
		for d := 0; d < 400; d++ {
			if g, w := gz.Uint64(), wz.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Zipf.Uint64 = %d, math/rand %d", seed, d, g, w)
			}
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("seed %d draw %d: Intn = %d, math/rand %d", seed, d, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 = %v, math/rand %v", seed, d, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand %#x", seed, d, g, w)
			}
		}
		if i%2 == 0 {
			// Leave bytes buffered in the generator going back to the
			// pool: the next seededRand must drop them.
			got.Read(make([]byte, 3))
		}
		rngPool.Put(got)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range rngEdgeSeeds {
		f.Add(seed, uint16(1500))
	}
	src := new(source)
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		matchDraws(t, src, seed, int(draws))
	})
}

// The stm_spec block shape.
var benchCfg = Config{Keys: 8, Alts: 4, Ops: 10, ReadFrac: 0.5, Zipf: 1.2}

var (
	sinkOps  []Op
	sinkVals []uint64
)

func BenchmarkGenOps(b *testing.B) {
	cfg := benchCfg
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		sinkOps = GenOps(cfg, i%cfg.Alts)
	}
}

func BenchmarkInitVals(b *testing.B) {
	cfg := benchCfg
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		sinkVals = InitVals(cfg)
	}
}
