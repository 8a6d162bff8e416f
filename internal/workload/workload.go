// Package workload defines the kernel-neutral operation accounting used
// throughout heterosim and the registry of studied workloads (Table 3 of
// the paper): dense matrix-matrix multiplication (MMM), fast Fourier
// transform (FFT), and Black-Scholes option pricing (BS).
//
// The paper's performance metrics are defined over nominal operation
// counts, not instructions executed: FFT uses the 5 N log2 N
// "pseudo-FLOP" convention, MMM uses 2 N^3, and Black-Scholes counts
// options priced. Compulsory off-chip traffic is likewise nominal: the
// bytes that must cross the pins assuming perfect on-chip reuse.
package workload

import (
	"errors"
	"fmt"
	"math"

	"github.com/calcm/heterosim/internal/paper"
)

// Counts is the nominal work of one kernel invocation.
type Counts struct {
	FLOPs float64 // nominal floating-point operations
	Bytes float64 // compulsory off-chip bytes
	Items float64 // domain-specific unit (options, transforms, matrices)
}

// ArithmeticIntensity returns FLOPs per compulsory byte.
func (c Counts) ArithmeticIntensity() (float64, error) {
	if c.Bytes <= 0 {
		return 0, errors.New("workload: no byte traffic recorded")
	}
	return c.FLOPs / c.Bytes, nil
}

// Add accumulates other into c.
func (c Counts) Add(other Counts) Counts {
	return Counts{
		FLOPs: c.FLOPs + other.FLOPs,
		Bytes: c.Bytes + other.Bytes,
		Items: c.Items + other.Items,
	}
}

// Info describes one workload for reporting purposes.
type Info struct {
	ID             paper.WorkloadID
	Name           string
	ThroughputUnit string // e.g. "GFLOP/s", "Mopt/s"
	WorkUnit       string // e.g. "pseudo-GFLOP", "option"
	Description    string
}

// Registry returns the Table 3 workload descriptors, keyed by ID.
func Registry() map[paper.WorkloadID]Info {
	return map[paper.WorkloadID]Info{
		paper.MMM: {
			ID: paper.MMM, Name: "Dense Matrix Multiplication",
			ThroughputUnit: "GFLOP/s", WorkUnit: "FLOP",
			Description: "high arithmetic intensity, simple memory requirements",
		},
		paper.BS: {
			ID: paper.BS, Name: "Black-Scholes",
			ThroughputUnit: "Mopt/s", WorkUnit: "option",
			Description: "rich mixture of arithmetic operators",
		},
		paper.FFT64: {
			ID: paper.FFT64, Name: "Fast Fourier Transform (N=64)",
			ThroughputUnit: "pseudo-GFLOP/s", WorkUnit: "pseudo-FLOP",
			Description: "complex dataflow and memory requirements",
		},
		paper.FFT1024: {
			ID: paper.FFT1024, Name: "Fast Fourier Transform (N=1024)",
			ThroughputUnit: "pseudo-GFLOP/s", WorkUnit: "pseudo-FLOP",
			Description: "complex dataflow and memory requirements",
		},
		paper.FFT16384: {
			ID: paper.FFT16384, Name: "Fast Fourier Transform (N=16384)",
			ThroughputUnit: "pseudo-GFLOP/s", WorkUnit: "pseudo-FLOP",
			Description: "complex dataflow and memory requirements",
		},
	}
}

// FFTCounts returns the nominal work of one size-n single-precision FFT:
// 5 n log2 n pseudo-FLOPs and 16 n compulsory bytes (complex input
// streamed in, complex output streamed out). n must be a power of two.
func FFTCounts(n int) (Counts, error) {
	if err := CheckPow2(n); err != nil {
		return Counts{}, err
	}
	l2 := math.Log2(float64(n))
	return Counts{
		FLOPs: 5 * float64(n) * l2,
		Bytes: paper.FFTBytesPerElement * float64(n),
		Items: 1,
	}, nil
}

// MMMCounts returns the nominal work of one n x n x n single-precision
// matrix multiplication: 2 n^3 FLOPs. Compulsory bytes assume blocked
// execution at block size b fitting on chip: each b-block of C requires
// streaming a row-panel of A and column-panel of B, amounting to
// 2*4*n^2*(n/b) bytes total (the paper's footnote-3 accounting).
func MMMCounts(n int, block float64) (Counts, error) {
	if n <= 0 {
		return Counts{}, errors.New("workload: MMM size must be positive")
	}
	if block <= 0 || block > float64(n) {
		return Counts{}, fmt.Errorf("workload: MMM block %g out of range (0, %d]", block, n)
	}
	nf := float64(n)
	flops := 2 * nf * nf * nf
	bytes := flops / paper.MMMArithmeticIntensity(block)
	return Counts{FLOPs: flops, Bytes: bytes, Items: 1}, nil
}

// BSCounts returns the nominal work of pricing k options: k options and
// 10 k compulsory bytes (paper footnote). FLOPs are not the reported
// metric for BS; we still account the closed-form op mix (~72 flops per
// option including the polynomial CNDF) for roofline analysis.
func BSCounts(k int) (Counts, error) {
	if k <= 0 {
		return Counts{}, errors.New("workload: option count must be positive")
	}
	const flopsPerOption = 72
	return Counts{
		FLOPs: flopsPerOption * float64(k),
		Bytes: paper.BSBytesPerOption * float64(k),
		Items: float64(k),
	}, nil
}

// CheckPow2 reports an error unless n is a power of two >= 2.
func CheckPow2(n int) error {
	if n < 2 || n&(n-1) != 0 {
		return fmt.Errorf("workload: size %d is not a power of two >= 2", n)
	}
	return nil
}

// ForID returns the Counts of the canonical invocation of a Table 5
// workload ID: one FFT of the embedded size, one 128-blocked 1024^3 MMM,
// or one option.
func ForID(id paper.WorkloadID) (Counts, error) {
	switch id {
	case paper.MMM:
		return MMMCounts(1024, paper.MMMBlockN)
	case paper.BS:
		return BSCounts(1)
	case paper.FFT64:
		return FFTCounts(64)
	case paper.FFT1024:
		return FFTCounts(1024)
	case paper.FFT16384:
		return FFTCounts(16384)
	default:
		return Counts{}, fmt.Errorf("workload: unknown workload %q", id)
	}
}

// BytesPerUnitWork returns the compulsory bytes per reported work unit
// (per pseudo-FLOP for FFT, per FLOP for MMM, per option for BS) — the
// quantity that converts device throughput into bandwidth demand.
func BytesPerUnitWork(id paper.WorkloadID) (float64, error) {
	c, err := ForID(id)
	if err != nil {
		return 0, err
	}
	switch id {
	case paper.BS:
		return c.Bytes / c.Items, nil
	default:
		return c.Bytes / c.FLOPs, nil
	}
}
