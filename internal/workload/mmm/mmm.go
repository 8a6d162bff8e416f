// Package mmm implements the dense matrix-matrix multiplication kernel
// (SGEMM-style, single precision in the paper; float64 here for test
// robustness): a naive triple loop, a cache-blocked variant matching the
// paper's footnote-3 blocking model, and a parallel blocked variant. The
// 2 N^3 FLOP accounting and the blocked compulsory-traffic model are what
// feed the heterosim performance model.
package mmm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zeroed Rows x Cols matrix.
func New(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("mmm: invalid dimensions %dx%d", rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, len(m.Data))}
	copy(out.Data, m.Data)
	return out
}

// Equalish reports whether m and other agree element-wise within tol.
func (m *Matrix) Equalish(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - other.Data[i]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}

func checkDims(a, b *Matrix) error {
	if a == nil || b == nil {
		return errors.New("mmm: nil matrix")
	}
	if a.Cols != b.Rows {
		return fmt.Errorf("mmm: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return nil
}

// Naive computes C = A*B with the textbook i-k-j loop order (k hoisted
// for locality). It takes four k at a time per output row, adding the
// same products in the same k order as a one-k loop, so every element is
// bit-identical to it; where the next four A entries hold an exact zero
// it steps one k, skipping the zero. It shares no code with the blocked
// kernel, so each cross-checks the other.
func Naive(a, b *Matrix) (*Matrix, error) {
	if err := checkDims(a, b); err != nil {
		return nil, err
	}
	c, err := New(a.Rows, b.Cols)
	if err != nil {
		return nil, err
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := c.Data[i*n : (i+1)*n]
		for k := 0; k < len(arow); {
			if k+4 <= len(arow) {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
					b0 := b.Data[k*n:][:len(crow)]
					b1 := b.Data[(k+1)*n:][:len(crow)]
					b2 := b.Data[(k+2)*n:][:len(crow)]
					b3 := b.Data[(k+3)*n:][:len(crow)]
					for j := range crow {
						crow[j] = crow[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
					k += 4
					continue
				}
			}
			if av := arow[k]; av != 0 {
				brow := b.Data[k*n:][:len(crow)]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
			k++
		}
	}
	return c, nil
}

// Blocked computes C = A*B with square blocking at size block, the
// structure the paper's compulsory-bandwidth footnote assumes.
func Blocked(a, b *Matrix, block int) (*Matrix, error) {
	if err := checkDims(a, b); err != nil {
		return nil, err
	}
	if block <= 0 {
		return nil, fmt.Errorf("mmm: block size %d must be positive", block)
	}
	c, err := New(a.Rows, b.Cols)
	if err != nil {
		return nil, err
	}
	for ii := 0; ii < a.Rows; ii += block {
		iMax := min(ii+block, a.Rows)
		for kk := 0; kk < a.Cols; kk += block {
			kMax := min(kk+block, a.Cols)
			for jj := 0; jj < b.Cols; jj += block {
				jMax := min(jj+block, b.Cols)
				multiplyBlock(a, b, c, ii, iMax, kk, kMax, jj, jMax)
			}
		}
	}
	return c, nil
}

// multiplyBlock adds the (ii..iMax, kk..kMax) x (kk..kMax, jj..jMax)
// block product into C, four k at a time where the A entries are nonzero
// and one k otherwise, in k-ascending order like Naive.
func multiplyBlock(a, b, c *Matrix, ii, iMax, kk, kMax, jj, jMax int) {
	n := b.Cols
	for i := ii; i < iMax; i++ {
		crow := c.Data[i*c.Cols:][jj:jMax]
		arow := a.Data[i*a.Cols:][kk:kMax]
		for k := 0; k < len(arow); {
			if k+4 <= len(arow) {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
					base := (kk+k)*n + jj
					b0 := b.Data[base:][:len(crow)]
					b1 := b.Data[base+n:][:len(crow)]
					b2 := b.Data[base+2*n:][:len(crow)]
					b3 := b.Data[base+3*n:][:len(crow)]
					for j := range crow {
						crow[j] = crow[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
					k += 4
					continue
				}
			}
			if av := arow[k]; av != 0 {
				brow := b.Data[(kk+k)*n+jj:][:len(crow)]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
			k++
		}
	}
}

// Parallel computes C = A*B with row-band parallelism across workers
// goroutines (0 means GOMAXPROCS) and blocking at size block within each
// band. This is the "throughput-driven, many independent inputs" shape
// the paper assumes for compute-bound measurement.
func Parallel(a, b *Matrix, block, workers int) (*Matrix, error) {
	if err := checkDims(a, b); err != nil {
		return nil, err
	}
	if block <= 0 {
		return nil, fmt.Errorf("mmm: block size %d must be positive", block)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c, err := New(a.Rows, b.Cols)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	band := (a.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * band
		hi := min(lo+band, a.Rows)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for ii := lo; ii < hi; ii += block {
				iMax := min(ii+block, hi)
				for kk := 0; kk < a.Cols; kk += block {
					kMax := min(kk+block, a.Cols)
					for jj := 0; jj < b.Cols; jj += block {
						jMax := min(jj+block, b.Cols)
						multiplyBlock(a, b, c, ii, iMax, kk, kMax, jj, jMax)
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return c, nil
}

// FLOPs returns the nominal operation count of an m x k x n
// multiplication: 2 m k n.
func FLOPs(m, k, n int) (float64, error) {
	if m <= 0 || k <= 0 || n <= 0 {
		return 0, errors.New("mmm: dimensions must be positive")
	}
	return 2 * float64(m) * float64(k) * float64(n), nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) (*Matrix, error) {
	m, err := New(n, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m, nil
}
