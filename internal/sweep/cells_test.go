package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func cellsTestGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := NewGrid(
		Axis{Name: "f", Values: []float64{0.5, 0.9, 0.99}},
		Axis{Name: "area", Values: []float64{1}},
		Axis{Name: "power", Values: []float64{0.5, 1, 2, 4}},
		Axis{Name: "bandwidth", Values: []float64{0.25, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCellsMatchesPointAt checks that Cells visits every flat index
// exactly once, at several worker counts, with vals agreeing with the
// named-Point decoding.
func TestCellsMatchesPointAt(t *testing.T) {
	g := cellsTestGrid(t)
	names := []string{"f", "area", "power", "bandwidth"}
	for _, workers := range []int{1, 2, 3, 16} {
		var mu sync.Mutex
		seen := make(map[int][]float64, g.Size())
		err := g.Cells(context.Background(), workers, func(flat int, vals []float64) error {
			cp := append([]float64(nil), vals...) // vals is worker scratch
			mu.Lock()
			if _, dup := seen[flat]; dup {
				mu.Unlock()
				t.Errorf("workers=%d: flat %d visited twice", workers, flat)
				return nil
			}
			seen[flat] = cp
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != g.Size() {
			t.Fatalf("workers=%d: visited %d of %d cells", workers, len(seen), g.Size())
		}
		for flat, vals := range seen {
			p, err := g.PointAt(flat)
			if err != nil {
				t.Fatal(err)
			}
			for k, name := range names {
				if vals[k] != p[name] {
					t.Fatalf("workers=%d flat=%d: vals[%d]=%v, PointAt[%s]=%v",
						workers, flat, k, vals[k], name, p[name])
				}
			}
		}
	}
}

// TestCellsError checks that a failing cell cancels the sweep and its
// error is returned at every worker count: index 0 always runs, so it
// is the lowest-indexed failure observed whatever the interleaving. At
// one worker no cell runs after it.
func TestCellsError(t *testing.T) {
	g := cellsTestGrid(t)
	boom := errors.New("boom")
	for _, w := range determinismWorkerCounts() {
		var calls atomic.Int64
		err := g.Cells(context.Background(), w, func(flat int, _ []float64) error {
			calls.Add(1)
			if flat == 0 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", w, err)
		}
		if n := calls.Load(); w == 1 && n != 1 {
			t.Fatalf("serial sweep made %d calls after error at flat 0, want 1", n)
		}
	}
}

// TestCellsCancel checks a pre-cancelled context stops the sweep without
// visiting cells.
func TestCellsCancel(t *testing.T) {
	g := cellsTestGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := g.Cells(ctx, 4, func(int, []float64) error {
		t.Error("cell visited under cancelled ctx")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
