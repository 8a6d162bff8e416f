package fft

import (
	"math/rand"
	"sync"
	"testing"
)

func TestPlanMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range []int{2, 8, 64, 1024, 4096} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.N() != n {
			t.Errorf("N = %d", p.N())
		}
		x := randomSignal(rng, n)
		want, err := ForwardCopy(x)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := p.Execute(got); err != nil {
			t.Fatal(err)
		}
		diff, _ := MaxAbsDiff(got, want)
		if diff > 1e-9*float64(n) {
			t.Errorf("n=%d: plan vs Forward diff = %g", n, diff)
		}
	}
}

// TestPlanMatchesForwardBitwise pins that the plan's per-stage twiddle
// tables and sliced butterflies compute exactly Forward's products and
// sums at every length the simulator executes.
func TestPlanMatchesForwardBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for n := 2; n <= 1<<16; n *= 2 {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randomSignal(rng, n)
		want, err := ForwardCopy(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Execute(x); err != nil {
			t.Fatal(err)
		}
		if i := sameBits(x, want); i >= 0 {
			t.Fatalf("n=%d: element %d = %v, Forward %v", n, i, x[i], want[i])
		}
	}
}

// TestPlanSharesTwiddleTables pins that a plan holds no twiddle values
// of its own: each stage's table is the package's cached twiddles(size).
func TestPlanSharesTwiddleTables(t *testing.T) {
	p, err := NewPlan(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	size := 2
	for s, tw := range p.stages {
		shared := twiddles(size)
		if len(tw) != size/2 || &tw[0] != &shared[0] {
			t.Errorf("stage %d (span %d): %d twiddles, shared table %v, want the %d cached",
				s, size, len(tw), &tw[0] == &shared[0], size/2)
		}
		size *= 2
	}
	if size != 2<<10 {
		t.Errorf("plan has stages up to span %d, want %d", size/2, 1<<10)
	}
}

func TestPlanInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p, err := NewPlan(512)
	if err != nil {
		t.Fatal(err)
	}
	orig := randomSignal(rng, 512)
	x := append([]complex128(nil), orig...)
	if err := p.Execute(x); err != nil {
		t.Fatal(err)
	}
	if err := p.ExecuteInverse(x); err != nil {
		t.Fatal(err)
	}
	diff, _ := MaxAbsDiff(x, orig)
	if diff > 1e-9*512 {
		t.Errorf("plan round trip diff = %g", diff)
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(12); err != ErrNotPow2 {
		t.Errorf("NewPlan(12): %v", err)
	}
	p, _ := NewPlan(8)
	if err := p.Execute(make([]complex128, 4)); err == nil {
		t.Error("wrong length must fail")
	}
	if err := p.ExecuteInverse(make([]complex128, 16)); err == nil {
		t.Error("wrong inverse length must fail")
	}
	if err := p.ExecuteBatch(make([]complex128, 12)); err == nil {
		t.Error("non-multiple batch must fail")
	}
	if err := p.ExecuteBatch(nil); err == nil {
		t.Error("empty batch must fail")
	}
}

func TestPlanBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p, _ := NewPlan(64)
	const rows = 8
	batch := randomSignal(rng, 64*rows)
	want := make([]complex128, len(batch))
	for r := 0; r < rows; r++ {
		row, err := ForwardCopy(batch[r*64 : (r+1)*64])
		if err != nil {
			t.Fatal(err)
		}
		copy(want[r*64:], row)
	}
	if err := p.ExecuteBatch(batch); err != nil {
		t.Fatal(err)
	}
	diff, _ := MaxAbsDiff(batch, want)
	if diff > 1e-9*64*rows {
		t.Errorf("batch diff = %g", diff)
	}
}

func TestPlanConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p, _ := NewPlan(256)
	inputs := make([][]complex128, 16)
	wants := make([][]complex128, 16)
	for i := range inputs {
		inputs[i] = randomSignal(rng, 256)
		w, err := ForwardCopy(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	var wg sync.WaitGroup
	errs := make([]error, len(inputs))
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.Execute(inputs[i])
		}(i)
	}
	wg.Wait()
	for i := range inputs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		diff, _ := MaxAbsDiff(inputs[i], wants[i])
		if diff > 1e-9*256 {
			t.Errorf("goroutine %d diverged: %g", i, diff)
		}
	}
}

// The point of plans: zero allocations per transform.
func TestPlanExecuteDoesNotAllocate(t *testing.T) {
	p, _ := NewPlan(1024)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%5))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := p.Execute(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Execute allocates %g objects per run, want 0", allocs)
	}
}

func BenchmarkPlanExecute1024(b *testing.B) {
	p, err := NewPlan(1024)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%5))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Execute(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanVsPlanless quantifies what plan reuse buys over the
// convenience API (which recomputes bit reversal and consults the global
// twiddle cache every call).
func BenchmarkPlanVsPlanless(b *testing.B) {
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(float64(i%11), float64(i%3))
	}
	b.Run("planned", func(b *testing.B) {
		p, err := NewPlan(4096)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := p.Execute(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("planless", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Forward(x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestPlanForCachesPerSize(t *testing.T) {
	a, err := PlanFor(2048)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanFor(2048)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("PlanFor(2048) built two plans for one size")
	}
	c, err := PlanFor(4096)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different sizes must get different plans")
	}
	if _, err := PlanFor(12); err != ErrNotPow2 {
		t.Errorf("PlanFor(12): %v, want ErrNotPow2", err)
	}
	// The cached plan transforms correctly.
	x := make([]complex128, 2048)
	for i := range x {
		x[i] = complex(float64(i%13), float64(i%7))
	}
	want, err := ForwardCopy(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Execute(x); err != nil {
		t.Fatal(err)
	}
	diff, err := MaxAbsDiff(x, want)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-8*2048 {
		t.Errorf("cached plan diverged: %g", diff)
	}
}

func TestPlanForConcurrentFirstUse(t *testing.T) {
	// Many goroutines race the first build of one size; all must end up
	// with the same plan and correct transforms.
	const n = 8192
	var wg sync.WaitGroup
	plans := make([]*Plan, 16)
	for g := range plans {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := PlanFor(n)
			if err != nil {
				t.Error(err)
				return
			}
			plans[g] = p
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(plans); g++ {
		if plans[g] != plans[0] {
			t.Fatalf("goroutine %d got a different plan", g)
		}
	}
}

// BenchmarkPlanForVsNewPlan quantifies what the package-level cache buys
// the measure/sim sweep path, which plans the same sizes over and over.
func BenchmarkPlanForVsNewPlan(b *testing.B) {
	sizes := []int{64, 1024, 16384}
	x := make([]complex128, 16384)
	for i := range x {
		x[i] = complex(float64(i%11), float64(i%3))
	}
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, n := range sizes {
				p, err := PlanFor(n)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Execute(x[:n]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, n := range sizes {
				p, err := NewPlan(n)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Execute(x[:n]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
