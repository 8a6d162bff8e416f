// Package fft implements the fast Fourier transform kernels studied by
// the paper: an iterative radix-2 decimation-in-time FFT with cached
// twiddle factors, a recursive variant, a naive O(N^2) DFT reference, and
// the inverse transform. The paper's Spiral-generated FFTs are replaced by
// these hand-written implementations; the pseudo-FLOP accounting
// (5 N log2 N) and streaming byte traffic (16 N) are identical, which is
// all the model consumes.
//
// Transforms operate on complex128 slices in natural order. All forward
// transforms compute the unnormalized DFT
//
//	X[k] = sum_{t=0}^{N-1} x[t] · exp(-2πi·tk/N)
//
// and Inverse applies the 1/N normalization so Inverse(Forward(x)) == x.
package fft

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// ErrNotPow2 is returned when a transform length is not a power of two.
var ErrNotPow2 = errors.New("fft: length must be a power of two >= 2")

// twiddleCache memoizes per-length twiddle factor tables. Tables are
// immutable once built, so concurrent readers are safe.
var twiddleCache sync.Map // int -> []complex128

// twiddles returns the first n/2 twiddle factors exp(-2πi·k/n).
func twiddles(n int) []complex128 {
	if v, ok := twiddleCache.Load(n); ok {
		return v.([]complex128)
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		angle := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = cmplx.Exp(complex(0, angle))
	}
	actual, _ := twiddleCache.LoadOrStore(n, tw)
	return actual.([]complex128)
}

// IsPow2 reports whether n is a power of two >= 2.
func IsPow2(n int) bool { return n >= 2 && n&(n-1) == 0 }

// BitReverse permutes x in place into bit-reversed order. The length must
// be a power of two.
func BitReverse(x []complex128) error {
	n := len(x)
	if !IsPow2(n) {
		return ErrNotPow2
	}
	// Classic in-place bit reversal.
	j := 0
	for i := 0; i < n-1; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		m := n >> 1
		for m >= 1 && j&m != 0 {
			j ^= m
			m >>= 1
		}
		j |= m
	}
	return nil
}

// Forward computes the in-place iterative radix-2 decimation-in-time FFT.
func Forward(x []complex128) error {
	n := len(x)
	if !IsPow2(n) {
		return ErrNotPow2
	}
	if err := BitReverse(x); err != nil {
		return err
	}
	tw := twiddles(n)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := tw[k*step]
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
	return nil
}

// Inverse computes the in-place inverse FFT with 1/N normalization.
func Inverse(x []complex128) error {
	n := len(x)
	if !IsPow2(n) {
		return ErrNotPow2
	}
	// IFFT(x) = conj(FFT(conj(x))) / N.
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := Forward(x); err != nil {
		return err
	}
	inv := complex(1/float64(n), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * inv
	}
	return nil
}

// ForwardCopy returns the FFT of x without modifying the input.
func ForwardCopy(x []complex128) ([]complex128, error) {
	out := make([]complex128, len(x))
	copy(out, x)
	if err := Forward(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ForwardRecursive computes the FFT by the textbook out-of-place recursive
// Cooley-Tukey decomposition. It shares no code with Forward or Plan, so it
// cross-checks both; its only allocation is the result.
func ForwardRecursive(x []complex128) ([]complex128, error) {
	n := len(x)
	if !IsPow2(n) && n != 1 {
		return nil, ErrNotPow2
	}
	out := make([]complex128, n)
	recurse(out, x, 1, twiddles(n), 1)
	return out, nil
}

// recurse writes into out the DFT of in[0], in[stride], ... (len(out)
// points). tw is twiddles(N) of the top-level N; tw[k*twStride] equals
// twiddles(len(out))[k] bit for bit, as N/len(out) is a power of two.
// The two-point leaf does exactly the butterfly a pair of one-point
// leaves would, twiddle multiply included, so the result is bit-identical
// to a unit-leaf recursion at half the calls.
func recurse(out, in []complex128, stride int, tw []complex128, twStride int) {
	n := len(out)
	switch n {
	case 1:
		out[0] = in[0]
		return
	case 2:
		e := in[0]
		t := tw[0] * in[stride]
		out[0], out[1] = e+t, e-t
		return
	}
	half := n / 2
	even, odd := out[:half], out[half:]
	recurse(even, in, 2*stride, tw, 2*twStride)
	recurse(odd, in[stride:], 2*stride, tw, 2*twStride)
	for k := range even {
		t := tw[k*twStride] * odd[k]
		e := even[k]
		even[k] = e + t
		odd[k] = e - t
	}
}

// DFT computes the naive O(N^2) discrete Fourier transform, used as the
// correctness oracle for the fast implementations. Any length >= 1 works.
func DFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

// Energy returns the signal energy sum |x[i]|^2, used by Parseval tests.
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		re, im := real(v), imag(v)
		e += re*re + im*im
	}
	return e
}

// MaxAbsDiff returns the largest element-wise |a[i]-b[i]|; it reports an
// error on length mismatch.
func MaxAbsDiff(a, b []complex128) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("fft: length mismatch %d vs %d", len(a), len(b))
	}
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m, nil
}
