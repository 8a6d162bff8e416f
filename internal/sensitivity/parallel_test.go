package sensitivity

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestMonteCarloParallelStability: the interval must be bit-identical at
// workers = 1, 4, and GOMAXPROCS — per-sample RNG sub-streams make the
// draw sequence independent of scheduling.
func TestMonteCarloParallelStability(t *testing.T) {
	want, err := MonteCarloCtx(context.Background(), ev, asic, 0.999, fftBudget, 0.2, 400, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0), 0} {
		got, err := MonteCarloCtx(context.Background(), ev, asic, 0.999, fftBudget, 0.2, 400, 42, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: interval %+v differs from serial %+v", workers, got, want)
		}
	}
	// The exported MonteCarlo wrapper (GOMAXPROCS pool) agrees too.
	got, err := MonteCarlo(ev, asic, 0.999, fftBudget, 0.2, 400, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("MonteCarlo wrapper %+v differs from serial %+v", got, want)
	}
}

// TestProfileParallelStability: elasticities are identical at every
// worker count.
func TestProfileParallelStability(t *testing.T) {
	want, err := ProfileCtx(context.Background(), ev, asic, 0.999, fftBudget, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0), 0} {
		got, err := ProfileCtx(context.Background(), ev, asic, 0.999, fftBudget, 0.01, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: profile %v differs from serial %v", workers, got, want)
		}
	}
	// CMP designs (no mu/phi) fan out fewer inputs but stay stable.
	wantCMP, err := ProfileCtx(context.Background(), ev, cmp, 0.999, fftBudget, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotCMP, err := ProfileCtx(context.Background(), ev, cmp, 0.999, fftBudget, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCMP, wantCMP) {
		t.Errorf("CMP profile differs: %v vs %v", gotCMP, wantCMP)
	}
}

// TestSampleRNGSubStreamsDecorrelated: adjacent seeds must not replay
// near-identical draw sequences (the reason for the splitmix64 mix).
func TestSampleRNGSubStreamsDecorrelated(t *testing.T) {
	a := rand.New(rand.NewSource(sampleSeed(7, 0)))
	b := rand.New(rand.NewSource(sampleSeed(7, 1)))
	same := 0
	for i := 0; i < 100; i++ {
		if a.NormFloat64() == b.NormFloat64() {
			same++
		}
	}
	if same > 1 {
		t.Errorf("sub-streams 0 and 1 collide on %d of 100 draws", same)
	}
}

// benchMonteCarlo runs the paper-sized 1000-draw study at a fixed worker
// count.
func benchMonteCarlo(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarloCtx(context.Background(), ev, asic, 0.999, fftBudget, 0.2, 1000, 42, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloSerial is the single-worker baseline.
func BenchmarkMonteCarloSerial(b *testing.B) { benchMonteCarlo(b, 1) }

// BenchmarkMonteCarloParallel fans the draws out at GOMAXPROCS.
func BenchmarkMonteCarloParallel(b *testing.B) { benchMonteCarlo(b, 0) }
