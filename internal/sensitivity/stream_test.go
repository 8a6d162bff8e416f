package sensitivity

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// checkLazySource compares the lazy source with rand.NewSource(seed)
// over draws values, through Int63 and through NormFloat64 (which also
// consumes extra values on its rare rejection paths).
func checkLazySource(t *testing.T, seed int64, draws int) {
	t.Helper()
	var lazy lazySource
	lazy.Seed(seed)
	ref := rand.NewSource(seed)
	for k := 0; k < draws; k++ {
		if got, want := lazy.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: Int63 draw %d = %d, math/rand %d", seed, k, got, want)
		}
	}
	lr := rand.New(&lazy)
	lr.Seed(seed)
	rr := rand.New(rand.NewSource(seed))
	for k := 0; k < draws; k++ {
		if got, want := lr.NormFloat64(), rr.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: NormFloat64 draw %d = %v, math/rand %v", seed, k, got, want)
		}
	}
}

// TestLazySourceMatchesMathRand pins the lazily seeded source to
// math/rand bit for bit, across the seed normalization's edge cases
// and past the hand-over to the full source at draw 273.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, lcgMod - 1, lcgMod, lcgMod + 1, -lcgMod,
		89482311, math.MaxInt64, math.MinInt64, sampleSeed(1, 0), sampleSeed(7, 999)}
	for _, seed := range seeds {
		for _, draws := range []int{0, 1, rngTap - 1, rngTap, rngTap + 1, 400} {
			checkLazySource(t, seed, draws)
		}
	}
	// A reseeded source, its full source already built, starts over.
	var lazy lazySource
	for _, seed := range []int64{3, 4} {
		lazy.Seed(seed)
		ref := rand.NewSource(seed)
		for k := 0; k < 2*rngLen; k++ {
			if got, want := lazy.Int63(), ref.Int63(); got != want {
				t.Fatalf("reseeded %d: draw %d = %d, math/rand %d", seed, k, got, want)
			}
		}
	}
}

// FuzzLazySourceMatchesMathRand checks the lazy source against
// math/rand for any seed and draw count.
func FuzzLazySourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(8))
	f.Add(int64(-1), uint16(rngTap))
	f.Add(int64(lcgMod), uint16(400))
	f.Add(int64(math.MinInt64), uint16(rngTap+1))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkLazySource(t, seed, int(draws%1024))
	})
}

// TestMonteCarloAllocs bounds a 1000-sample study's allocations by a
// constant: per call, the result slices and the worker goroutines; per
// sample, nothing.
func TestMonteCarloAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, tc := range []struct{ workers, max int }{{1, 6}, {4, 20}} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := MonteCarloCtx(context.Background(), ev, asic, 0.999, fftBudget, 0.2, 1000, 42, tc.workers); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(tc.max) {
			t.Errorf("workers=%d: %v allocs per 1000-sample study, want <= %d", tc.workers, allocs, tc.max)
		}
	}
}
