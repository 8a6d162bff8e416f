package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{2, 4, 8, 1024, 1 << 20} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, 1, 3, 6, 12, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestForwardMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		x := randomSignal(rng, n)
		want := DFT(x)
		got, err := ForwardCopy(x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		diff, err := MaxAbsDiff(got, want)
		if err != nil {
			t.Fatal(err)
		}
		if diff > 1e-9*float64(n) {
			t.Errorf("n=%d: max diff vs DFT = %g", n, diff)
		}
	}
}

func TestRecursiveMatchesIterative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Up to 65536, the largest transform the simulator executes.
	for _, n := range []int{2, 8, 32, 128, 1024, 1 << 16} {
		x := randomSignal(rng, n)
		rec, err := ForwardRecursive(x)
		if err != nil {
			t.Fatal(err)
		}
		it, err := ForwardCopy(x)
		if err != nil {
			t.Fatal(err)
		}
		diff, _ := MaxAbsDiff(rec, it)
		if diff > 1e-9*float64(n) {
			t.Errorf("n=%d: recursive vs iterative diff = %g", n, diff)
		}
	}
}

// unitLeaf is the recursion ForwardRecursive unrolls: one-point leaves
// and a butterfly at every level. It is the oracle the two-point leaf
// must match bit for bit.
func unitLeaf(out, in []complex128, stride int, tw []complex128, twStride int) {
	n := len(out)
	if n == 1 {
		out[0] = in[0]
		return
	}
	half := n / 2
	even, odd := out[:half], out[half:]
	unitLeaf(even, in, 2*stride, tw, 2*twStride)
	unitLeaf(odd, in[stride:], 2*stride, tw, 2*twStride)
	for k := range even {
		t := tw[k*twStride] * odd[k]
		e := even[k]
		even[k] = e + t
		odd[k] = e - t
	}
}

// sameBits reports the first index where a and b differ in any bit of
// either component, or -1.
func sameBits(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

func TestForwardRecursiveMatchesUnitLeafBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 1<<16; n *= 2 {
		plain := randomSignal(rng, n)
		// A signed zero and an infinite odd-index input exercise the
		// leaf's multiply by tw[0] = 1+0i, which must not be skipped:
		// (1+0i)·(0+∞i) has a NaN real part.
		special := randomSignal(rng, n)
		special[0] = complex(math.Copysign(0, -1), 0)
		special[n-1] = complex(0, math.Inf(1))
		for _, x := range [][]complex128{plain, special} {
			got, err := ForwardRecursive(x)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]complex128, n)
			unitLeaf(want, x, 1, twiddles(n), 1)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n=%d: element %d = %v, unit-leaf recursion %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestForwardRecursiveAllocatesOnlyResult(t *testing.T) {
	x := randomSignal(rand.New(rand.NewSource(3)), 4096)
	if _, err := ForwardRecursive(x); err != nil { // warm the twiddle cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ForwardRecursive(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("ForwardRecursive allocs = %v, want exactly 1 (the result)", allocs)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 16, 1024, 4096} {
		orig := randomSignal(rng, n)
		x := append([]complex128(nil), orig...)
		if err := Forward(x); err != nil {
			t.Fatal(err)
		}
		if err := Inverse(x); err != nil {
			t.Fatal(err)
		}
		diff, _ := MaxAbsDiff(x, orig)
		if diff > 1e-9*float64(n) {
			t.Errorf("n=%d: round-trip diff = %g", n, diff)
		}
	}
}

func TestKnownTransforms(t *testing.T) {
	// Impulse -> flat spectrum.
	x := []complex128{1, 0, 0, 0}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse FFT[%d] = %v, want 1", k, v)
		}
	}
	// Constant -> impulse at DC.
	x = []complex128{1, 1, 1, 1}
	Forward(x)
	if cmplx.Abs(x[0]-4) > 1e-12 {
		t.Errorf("DC bin = %v, want 4", x[0])
	}
	for k := 1; k < 4; k++ {
		if cmplx.Abs(x[k]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", k, x[k])
		}
	}
	// Single complex exponential lands in exactly one bin.
	n := 16
	x = make([]complex128, n)
	for i := range x {
		angle := 2 * math.Pi * 3 * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, angle))
	}
	Forward(x)
	for k := 0; k < n; k++ {
		want := 0.0
		if k == 3 {
			want = float64(n)
		}
		if cmplx.Abs(x[k]-complex(want, 0)) > 1e-9 {
			t.Errorf("exp tone bin %d = %v, want %g", k, x[k], want)
		}
	}
}

func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 128
	a := randomSignal(rng, n)
	b := randomSignal(rng, n)
	alpha := complex(2.5, -1.25)
	// FFT(alpha*a + b) == alpha*FFT(a) + FFT(b).
	comb := make([]complex128, n)
	for i := range comb {
		comb[i] = alpha*a[i] + b[i]
	}
	fc, _ := ForwardCopy(comb)
	fa, _ := ForwardCopy(a)
	fb, _ := ForwardCopy(b)
	for i := range fc {
		want := alpha*fa[i] + fb[i]
		if cmplx.Abs(fc[i]-want) > 1e-9*float64(n) {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{8, 64, 1024} {
		x := randomSignal(rng, n)
		timeE := Energy(x)
		f, _ := ForwardCopy(x)
		freqE := Energy(f) / float64(n)
		if math.Abs(timeE-freqE) > 1e-9*timeE*float64(n) {
			t.Errorf("n=%d: Parseval violated: %g vs %g", n, timeE, freqE)
		}
	}
}

func TestConvolutionTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 64
	a := randomSignal(rng, n)
	b := randomSignal(rng, n)
	// Pointwise product of the spectra, transformed back.
	got, err := ForwardCopy(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := ForwardCopy(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] *= fb[i]
	}
	if err := Inverse(got); err != nil {
		t.Fatal(err)
	}
	// Direct circular convolution.
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			sum += a[j] * b[(k-j+n)%n]
		}
		want[k] = sum
	}
	diff, _ := MaxAbsDiff(got, want)
	if diff > 1e-8*float64(n) {
		t.Errorf("convolution diff = %g", diff)
	}
}

func TestBitReverse(t *testing.T) {
	x := []complex128{0, 1, 2, 3, 4, 5, 6, 7}
	if err := BitReverse(x); err != nil {
		t.Fatal(err)
	}
	want := []complex128{0, 4, 2, 6, 1, 5, 3, 7}
	for i := range want {
		if x[i] != want[i] {
			t.Errorf("BitReverse[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	// Involution: applying twice restores order.
	BitReverse(x)
	for i := range x {
		if x[i] != complex(float64(i), 0) {
			t.Errorf("double reversal not identity at %d", i)
		}
	}
	if err := BitReverse(make([]complex128, 3)); err != ErrNotPow2 {
		t.Errorf("err = %v, want ErrNotPow2", err)
	}
}

func TestErrNotPow2(t *testing.T) {
	bad := make([]complex128, 12)
	if err := Forward(bad); err != ErrNotPow2 {
		t.Errorf("Forward: %v", err)
	}
	if err := Inverse(bad); err != ErrNotPow2 {
		t.Errorf("Inverse: %v", err)
	}
	if _, err := ForwardCopy(bad); err != ErrNotPow2 {
		t.Errorf("ForwardCopy: %v", err)
	}
	if _, err := ForwardRecursive(bad); err != ErrNotPow2 {
		t.Errorf("ForwardRecursive: %v", err)
	}
}

func TestForwardCopyDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randomSignal(rng, 32)
	snapshot := append([]complex128(nil), x...)
	if _, err := ForwardCopy(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != snapshot[i] {
			t.Fatal("ForwardCopy mutated its input")
		}
	}
}

// Property: time shift multiplies the spectrum by a phase ramp.
func TestPropTimeShiftPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 64
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randomSignal(r, n)
		shifted := make([]complex128, n)
		for i := range shifted {
			shifted[i] = x[(i+1)%n] // shift left by one
		}
		fx, _ := ForwardCopy(x)
		fs, _ := ForwardCopy(shifted)
		for k := 0; k < n; k++ {
			phase := cmplx.Exp(complex(0, 2*math.Pi*float64(k)/float64(n)))
			if cmplx.Abs(fs[k]-fx[k]*phase) > 1e-8*float64(n) {
				return false
			}
		}
		_ = rng
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: conjugate symmetry for real inputs.
func TestPropRealInputConjugateSymmetry(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 128
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), 0)
		}
		f, err := ForwardCopy(x)
		if err != nil {
			return false
		}
		for k := 1; k < n; k++ {
			if cmplx.Abs(f[k]-cmplx.Conj(f[n-k])) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkForward1024(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randomSignal(rng, 1024)
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := Forward(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForward16384(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := randomSignal(rng, 16384)
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := Forward(buf); err != nil {
			b.Fatal(err)
		}
	}
}
