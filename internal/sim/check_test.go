package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/workload/blackscholes"
	"github.com/calcm/heterosim/internal/workload/mmm"
)

// reproductionInputs are the distinct inputs a paper reproduction
// verifies: Figure 2's FFT sweep, 16 to 65536 points, and the measurement
// database's MMM product and BS portfolio at their caps (its three FFT
// anchors are among the sweep's sizes).
func reproductionInputs() []Input {
	ins := []Input{
		{Kernel: KernelMMM, N: maxExecMMM, Block: int(paper.MMMBlockN)},
		{Kernel: KernelBS, N: maxExecBS},
	}
	for n := 16; n <= maxExecFFT; n *= 2 {
		ins = append(ins, Input{Kernel: KernelFFT, N: n})
	}
	return ins
}

// checkName names an input for a sub-benchmark.
func checkName(in Input) string {
	switch in.Kernel {
	case KernelFFT:
		return fmt.Sprintf("FFT-%d", in.N)
	case KernelMMM:
		return fmt.Sprintf("MMM-%d-b%d", in.N, in.Block)
	case KernelBS:
		return fmt.Sprintf("BS-%d", in.N)
	}
	return fmt.Sprintf("kernel%d-%d", in.Kernel, in.N)
}

// TestExecuteFFTAllocs pins the FFT check's memory: its signal comes
// from the operand cache, and it allocates the recursive reference's
// result and the working copy the planned transform runs in, so no
// third n-sized buffer. Bytes, not allocation counts, are bounded: a
// third buffer would add 16n bytes.
func TestExecuteFFTAllocs(t *testing.T) {
	const n = 1 << 16
	in := Input{Kernel: KernelFFT, N: n}
	if err := in.check(); err != nil { // warm the operand, plan and twiddle caches
		t.Fatal(err)
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := in.check(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	const buffers = 2 * 16 * n // the reference result and the working copy, complex128
	if perRun < buffers || perRun > buffers+16<<10 {
		t.Errorf("FFT check of %d points allocates %d bytes, want the two %d-byte buffers plus under 16 KiB",
			n, perRun, buffers/2)
	}
}

// freshOperands generates an input's operands the way each check did
// before operands were cached, as the reference the cache must match.
func freshOperands(t *testing.T, in Input) operands {
	t.Helper()
	switch in.Kernel {
	case KernelFFT:
		rng := rand.New(rand.NewSource(int64(in.N)))
		x := make([]complex128, in.N)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return operands{signal: x}
	case KernelMMM:
		rng := rand.New(rand.NewSource(int64(in.N)))
		a, _ := mmm.New(in.N, in.N)
		b, _ := mmm.New(in.N, in.N)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			b.Data[i] = rng.NormFloat64()
		}
		return operands{a: a, b: b}
	case KernelBS:
		opts, err := blackscholes.RandomPortfolio(in.N, int64(in.N))
		if err != nil {
			t.Fatal(err)
		}
		return operands{portfolio: opts}
	}
	t.Fatalf("unknown kernel %d", in.Kernel)
	return operands{}
}

// operandBits flattens operands to the bits of every value they hold.
func operandBits(o operands) []uint64 {
	var bits []uint64
	for _, v := range o.signal {
		bits = append(bits, math.Float64bits(real(v)), math.Float64bits(imag(v)))
	}
	for _, m := range []*mmm.Matrix{o.a, o.b} {
		if m != nil {
			bits = append(bits, uint64(m.Rows), uint64(m.Cols))
			for _, v := range m.Data {
				bits = append(bits, math.Float64bits(v))
			}
		}
	}
	for _, p := range o.portfolio {
		bits = append(bits, uint64(p.Kind))
		for _, v := range []float64{p.Spot, p.Strike, p.Rate, p.Vol, p.Time} {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// firstDiff returns the index where two bit lists first differ, or -1.
func firstDiff(a, b []uint64) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// TestCachedOperandsMatchFreshGeneration: after a reproduction's checks
// have run on them, the cached operands of every input are bit for bit
// what a fresh generation gives, and every one of them is cached.
func TestCachedOperandsMatchFreshGeneration(t *testing.T) {
	ins := reproductionInputs()
	if err := verify(ins); err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		checkOperands.mu.Lock()
		cached, ok := checkOperands.m[in.operandKey()]
		checkOperands.mu.Unlock()
		if !ok {
			t.Errorf("%s: operands not cached", checkName(in))
			continue
		}
		want := operandBits(freshOperands(t, in))
		if len(want) == 0 {
			t.Fatalf("%s: fresh operands are empty", checkName(in))
		}
		if i := firstDiff(operandBits(cached), want); i >= 0 {
			t.Errorf("%s: cached operands differ from a fresh generation at value %d", checkName(in), i)
		}
	}
}

// TestConcurrentVerifyLeavesOperandsUnchanged runs two reproductions'
// checks at once over the shared operands; under the race detector a
// check that wrote them would be reported, and without it the bits
// would change.
func TestConcurrentVerifyLeavesOperandsUnchanged(t *testing.T) {
	ins := reproductionInputs()
	before := make([][]uint64, len(ins))
	for i, in := range ins {
		ops, err := checkOperands.get(in)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = operandBits(ops)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = verify(ins)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, in := range ins {
		ops, err := checkOperands.get(in)
		if err != nil {
			t.Fatal(err)
		}
		if j := firstDiff(operandBits(ops), before[i]); j >= 0 {
			t.Errorf("%s: operands changed at value %d", checkName(in), j)
		}
	}
}

// TestOperandCacheStaysWithinBudget sweeps distinct inputs whose
// operands together are several times a small cache's budget, twice:
// the cache never holds more than its budget, what it holds is what it
// counts, and every check passes, cached or generated afresh.
func TestOperandCacheStaysWithinBudget(t *testing.T) {
	const budget = 1 << 20
	c := newOperandCache(budget)
	var ins []Input
	for n := 1 << 10; n <= 1<<16; n *= 2 {
		ins = append(ins, Input{Kernel: KernelFFT, N: n})
	}
	for n := 96; n <= 160; n += 16 {
		ins = append(ins, Input{Kernel: KernelMMM, N: n, Block: 32})
	}
	for n := 4000; n <= 20000; n += 4000 {
		ins = append(ins, Input{Kernel: KernelBS, N: n})
	}
	total := 0
	for _, in := range ins {
		total += freshOperands(t, in).bytes()
	}
	if total < 3*budget {
		t.Fatalf("sweep operands total %d bytes, want several times the %d-byte budget", total, budget)
	}
	for pass := 0; pass < 2; pass++ {
		for _, in := range ins {
			if err := c.check(in); err != nil {
				t.Fatalf("pass %d, %s: %v", pass, checkName(in), err)
			}
			c.mu.Lock()
			held := 0
			for _, ops := range c.m {
				held += ops.bytes()
			}
			if c.bytes > budget || held != c.bytes {
				t.Errorf("pass %d, after %s: cache counts %d bytes and holds %d, budget %d",
					pass, checkName(in), c.bytes, held, budget)
			}
			c.mu.Unlock()
		}
	}
	if len(c.m) == 0 || len(c.m) == len(ins) {
		t.Errorf("cache holds %d of %d inputs, want some but not all", len(c.m), len(ins))
	}
}

// BenchmarkCheck times each check a reproduction runs, one sub-benchmark
// per distinct input, so the verification layer has a row of its own.
func BenchmarkCheck(b *testing.B) {
	for _, in := range reproductionInputs() {
		b.Run(checkName(in), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := in.check(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
