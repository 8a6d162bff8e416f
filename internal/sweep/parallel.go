package sweep

import (
	"context"
	"fmt"

	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/telemetry"
)

// decodeValsInto writes grid point i (row-major, last axis fastest) into
// vals, indexed by axis position: vals[k] is the value of axis k in the
// grid's declared order. The caller guarantees 0 <= i < Size() and
// len(vals) == len(g.axes).
func (g *Grid) decodeValsInto(i int, vals []float64) {
	for ax := len(g.axes) - 1; ax >= 0; ax-- {
		vs := g.axes[ax].Values
		vals[ax] = vs[i%len(vs)]
		i /= len(vs)
	}
}

// blocksRange partitions the half-open index window [lo, hi) into one
// contiguous chunk per worker slot and fans the chunks out through the
// par pool. Each chunk is visited in ascending index order, so
// per-chunk scratch state can be reused across cells without
// allocation; ctx is polled between cells so request deadlines still
// propagate into long grids. Errors follow par's contract: the first
// failure cancels the pool and the lowest-indexed observed error is
// returned (chunks are in index order and stop at their first error,
// so this is the lowest-indexed failing cell among those observed).
func (g *Grid) blocksRange(ctx context.Context, workers, lo, hi int, run func(ctx context.Context, lo, hi int) error) error {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	w := par.Workers(workers)
	if w > n {
		w = n
	}
	return par.ForEach(ctx, w, w, func(ctx context.Context, b int) error {
		return run(ctx, lo+b*n/w, lo+(b+1)*n/w)
	})
}

// Cells invokes fn for every grid point across a bounded worker pool
// (workers <= 0 means GOMAXPROCS), passing the point's flat row-major
// index and its values indexed by axis position, so hot paths pay no
// map per cell. vals is per-worker scratch, valid only for the duration
// of the call: fn must copy anything it keeps. fn runs concurrently and
// must be safe for parallel use; the first error cancels the sweep, and
// cancelling ctx (nil means Background) stops it between points.
func (g *Grid) Cells(ctx context.Context, workers int, fn func(flat int, vals []float64) error) error {
	// When the context carries a telemetry stage family (the serving
	// layer threads one through), the whole parallel grid is recorded as
	// the "sweep" stage — the engine-side share of an evaluation.
	return g.CellsRange(ctx, workers, 0, g.Size(), fn)
}

// CellsRange is Cells restricted to the half-open flat-index window
// [lo, hi) — the streaming building block: a caller emitting rows
// incrementally evaluates one bounded window at a time (parallel
// inside the window, windows in row-major order), so memory stays
// proportional to the window and cancellation is honored between
// windows as well as between cells. Out-of-range bounds are clamped;
// an empty window is a no-op. Cell indexing, scratch reuse, error
// selection, and the "sweep" telemetry stage match Cells exactly:
// Cells(ctx, w, fn) ≡ CellsRange(ctx, w, 0, Size(), fn).
func (g *Grid) CellsRange(ctx context.Context, workers, lo, hi int, fn func(flat int, vals []float64) error) error {
	if lo < 0 {
		lo = 0
	}
	if hi > g.Size() {
		hi = g.Size()
	}
	defer telemetry.StartSpan(ctx, "sweep").End()
	return g.blocksRange(ctx, workers, lo, hi, func(ctx context.Context, lo, hi int) error {
		vals := make([]float64, len(g.axes))
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			g.decodeValsInto(i, vals)
			if err := fn(i, vals); err != nil {
				return err
			}
		}
		return nil
	})
}

// cell is one evaluated grid point in an ArgMaxParallel sweep.
type cell struct {
	value float64
	err   error
}

// ArgMaxParallel evaluates objective at every point concurrently and
// returns the best result. It is bit-identical to ArgMax at every worker
// count: all points are evaluated (an objective error skips the point, it
// does not cancel the sweep), and the reduction runs in ascending index
// order with a strict > comparison, so ties break to the lowest index
// exactly as the serial scan does. If every point fails, the error of the
// highest-indexed point is returned — again matching ArgMax, whose
// "last error" is the last one met in row-major order. Cancelling ctx
// (nil means Background) aborts the sweep with ctx.Err(). The Point
// handed to objective is per-worker scratch: copy it if kept.
//
// objective runs concurrently: it must be safe for parallel use.
func (g *Grid) ArgMaxParallel(ctx context.Context, workers int, objective func(Point) (float64, error)) (Result, error) {
	cells := make([]cell, g.Size())
	err := g.blocksRange(ctx, workers, 0, g.Size(), func(ctx context.Context, lo, hi int) error {
		p := make(Point, len(g.axes))
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			g.decodeInto(i, p)
			v, err := objective(p)
			cells[i] = cell{value: v, err: err}
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	var (
		best    Result
		bestIdx = -1
		lastErr error
	)
	for i, c := range cells {
		if c.err != nil {
			lastErr = c.err
			continue
		}
		if bestIdx < 0 || c.value > best.Value {
			best = Result{Value: c.value}
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return Result{}, fmt.Errorf("sweep: no feasible point: %w", lastErr)
	}
	p, err := g.PointAt(bestIdx)
	if err != nil {
		return Result{}, err
	}
	best.Point = p
	return best, nil
}
