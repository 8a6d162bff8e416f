// Package par is the repository's one concurrency idiom: a bounded
// worker pool over index ranges with deterministic, ordered results.
//
// The model/analysis layer (project, sweep, sensitivity, ablation, sim,
// and the CLI) is embarrassingly parallel — independent (design, node, r)
// optimizations, grid points, and Monte Carlo draws — so everything fans
// out through Map/ForEach here instead of hand-rolling goroutines.
//
// Guarantees:
//
//   - Results are assembled in index order, so output is identical at
//     every worker count (callers supply per-index determinism, e.g.
//     seed+i RNG sub-streams).
//   - The first error cancels the pool promptly via context; among
//     concurrently observed failures the lowest-indexed error wins, which
//     makes the returned error deterministic whenever errors are not
//     racing each other (and always at workers = 1).
//   - A panic in fn comes back as an error wrapping ErrPanic, at every
//     worker count, instead of killing the process from a worker
//     goroutine no caller can recover.
//   - workers <= 0 means runtime.GOMAXPROCS(0).
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrPanic is wrapped by the error ForEach and Map return when fn
// panics; the message adds the index and the panic value.
var ErrPanic = errors.New("par: fn panicked")

func panicError(i int, p any) error {
	return fmt.Errorf("%w at index %d: %v", ErrPanic, i, p)
}

// Workers resolves a worker-count request: values <= 0 mean
// runtime.GOMAXPROCS(0), anything else passes through.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Normalize canonicalizes a worker-count request at a configuration
// boundary (CLI flag, server config, HTTP request body): every "auto"
// spelling (zero or any negative value) becomes 0, positive counts pass
// through. It is the single place where -workers and Workers fields are
// sanitized, so a count that survives Normalize is either 0 (auto) or a
// positive pool size — downstream code never sees -3.
func Normalize(n int) int {
	if n <= 0 {
		return 0
	}
	return n
}

// ForEach invokes fn(ctx, i) for every i in [0, n) using at most workers
// goroutines (workers <= 0 means GOMAXPROCS). Indices are claimed from a
// shared atomic counter, so load balances dynamically; at workers = 1 the
// calls happen in ascending index order on the calling goroutine.
//
// The first error cancels the derived context and drains the pool; the
// lowest-indexed observed error is returned. A panic in fn is such an
// error, wrapping ErrPanic. A pre-cancelled ctx returns its error
// without invoking fn.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) (err error) {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		i := 0
		defer func() {
			if p := recover(); p != nil {
				err = panicError(i, p)
			}
		}()
		for ; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	report := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel() // first failure stops the pool
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			var i int
			defer func() {
				if p := recover(); p != nil {
					report(i, panicError(i, p))
				}
			}()
			for {
				i = int(next.Add(1)) - 1
				if i >= n || cctx.Err() != nil {
					return
				}
				if err := fn(cctx, i); err != nil {
					report(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Map evaluates fn over [0, n) with ForEach's pool semantics and returns
// the results in index order regardless of completion order. On error the
// partial results are discarded and the (lowest-indexed) error returned.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
