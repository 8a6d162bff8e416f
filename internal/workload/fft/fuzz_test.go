package fft

import (
	"math"
	"math/cmplx"
	"testing"
)

// FuzzRoundTrip checks Forward/Inverse identity and Parseval's theorem on
// arbitrary signals synthesized from fuzz bytes. (Seeds run under plain
// `go test`; `go test -fuzz=FuzzRoundTrip` explores further.)
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 128, 7, 42, 13, 99, 200, 31, 8, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		// Signal length: power of two in [4, 256] picked from the data.
		exp := 2 + int(data[0])%7
		n := 1 << uint(exp)
		x := make([]complex128, n)
		for i := range x {
			re := float64(int8(data[(2*i+1)%len(data)])) / 16
			im := float64(int8(data[(2*i+2)%len(data)])) / 16
			x[i] = complex(re, im)
		}
		orig := append([]complex128(nil), x...)
		if err := Forward(x); err != nil {
			t.Fatal(err)
		}
		// Parseval.
		timeE := Energy(orig)
		freqE := Energy(x) / float64(n)
		if math.Abs(timeE-freqE) > 1e-6*(1+timeE)*float64(n) {
			t.Fatalf("Parseval violated: %g vs %g", timeE, freqE)
		}
		if err := Inverse(x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-7*float64(n) {
				t.Fatalf("round trip diverged at %d", i)
			}
		}
	})
}
