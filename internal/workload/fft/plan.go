package fft

import (
	"errors"
	"fmt"
	"math/cmplx"
	"sync"
)

// Plan precomputes everything a fixed-size transform needs — twiddle
// tables, bit-reversal permutation — so repeated transforms of the same
// length do no allocation and no trigonometry, the way tuned FFT
// libraries (FFTW, Spiral's generated code) amortize setup. A Plan is
// safe for concurrent use by multiple goroutines: Execute works in the
// caller's buffer and the plan itself is immutable after NewPlan.
type Plan struct {
	n int
	// stages[s] holds the twiddles of the butterfly stage of span 2<<s,
	// exp(-2πik/(2<<s)) for k in [0, 1<<s), contiguous. Each is the
	// package's shared twiddles(2<<s) table: tw_n[k·n/size] equals
	// twiddles(size)[k] bit for bit, as n/size is a power of two, so
	// the plan keeps no twiddle values of its own.
	stages [][]complex128
	rev    []int // bit-reversal permutation
}

// NewPlan prepares a transform of length n (a power of two >= 2).
func NewPlan(n int) (*Plan, error) {
	if !IsPow2(n) {
		return nil, ErrNotPow2
	}
	p := &Plan{n: n, rev: make([]int, n)}
	for size := 2; size <= n; size <<= 1 {
		p.stages = append(p.stages, twiddles(size))
	}
	// Bit-reversal permutation table.
	bits := 0
	for v := n; v > 1; v >>= 1 {
		bits++
	}
	for i := range p.rev {
		r := 0
		for b := 0; b < bits; b++ {
			r = (r << 1) | ((i >> uint(b)) & 1)
		}
		p.rev[i] = r
	}
	return p, nil
}

// planCache memoizes one Plan per transform length. Plans are immutable
// after NewPlan and safe for concurrent use, so sharing one per size is
// sound; repeated measure/sim sweeps at the same sizes reuse the twiddle
// and bit-reversal tables instead of re-deriving them on every run.
var planCache sync.Map // int -> *Plan

// PlanFor returns the shared cached plan for length n (a power of two
// >= 2), building and memoizing it on first use. Callers that need a
// private plan (there is no semantic reason to — plans are stateless
// between Execute calls) can still use NewPlan.
func PlanFor(n int) (*Plan, error) {
	if v, ok := planCache.Load(n); ok {
		return v.(*Plan), nil
	}
	p, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*Plan), nil
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

// Execute computes the in-place forward FFT of x, which must have the
// plan's length.
func (p *Plan) Execute(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("fft: plan is for n=%d, input has %d", p.n, len(x))
	}
	// Permute via the precomputed table.
	for i, r := range p.rev {
		if i < r {
			x[i], x[r] = x[r], x[i]
		}
	}
	// Butterflies with each stage's contiguous twiddles: the same
	// products and sums, in the same order, as Forward.
	for s, tw := range p.stages {
		half := 1 << s
		for start := 0; start < len(x); start += 2 * half {
			lo := x[start : start+half]
			hi := x[start+half:][:len(lo)]
			w := tw[:len(lo)]
			for k, a := range lo {
				b := hi[k] * w[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
	return nil
}

// ExecuteInverse computes the in-place inverse FFT with 1/N scaling.
func (p *Plan) ExecuteInverse(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("fft: plan is for n=%d, input has %d", p.n, len(x))
	}
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := p.Execute(x); err != nil {
		return err
	}
	inv := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * inv
	}
	return nil
}

// ExecuteBatch transforms every row of a batch laid out contiguously
// (len(batch) must be a multiple of the plan length) — the paper's
// throughput-driven shape: many independent transforms back to back.
func (p *Plan) ExecuteBatch(batch []complex128) error {
	if len(batch) == 0 || len(batch)%p.n != 0 {
		return errors.New("fft: batch length must be a positive multiple of the plan length")
	}
	for off := 0; off < len(batch); off += p.n {
		if err := p.Execute(batch[off : off+p.n]); err != nil {
			return err
		}
	}
	return nil
}
