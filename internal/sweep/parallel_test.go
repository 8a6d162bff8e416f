package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
)

func testGrid(t testing.TB) *Grid {
	t.Helper()
	xs, err := Range(-2, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	ys, err := Range(0, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	zs, err := Range(1, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(
		Axis{Name: "x", Values: xs},
		Axis{Name: "y", Values: ys},
		Axis{Name: "z", Values: zs},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// determinismWorkerCounts are the pool shapes the ISSUE pins down:
// serial, small, and GOMAXPROCS (0 resolves to it).
func determinismWorkerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0), 0}
}

func TestPointAtMatchesEachOrder(t *testing.T) {
	g := testGrid(t)
	i := 0
	err := g.Each(func(p Point) error {
		q, err := g.PointAt(i)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(p, q) {
			return fmt.Errorf("index %d: Each=%v PointAt=%v", i, p, q)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != g.Size() {
		t.Fatalf("visited %d of %d points", i, g.Size())
	}
	if _, err := g.PointAt(-1); err == nil {
		t.Error("PointAt(-1) must fail")
	}
	if _, err := g.PointAt(g.Size()); err == nil {
		t.Error("PointAt(Size) must fail")
	}
}

// frontierObjective mirrors the CLI frontier sweep: optimize a U-core
// heterogeneous design under fixed 40nm FFT budgets. Points with phi too
// high for the budget come back infeasible, exercising the error-skipping
// path with a real model.
func frontierObjective(t testing.TB) (*Grid, func(Point) (float64, error)) {
	t.Helper()
	mus, err := Range(0.5, 64, 24)
	if err != nil {
		t.Fatal(err)
	}
	phis, err := Range(0.125, 4, 24)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(
		Axis{Name: "phi", Values: phis},
		Axis{Name: "mu", Values: mus},
	)
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator()
	budgets := bounds.Budgets{Area: 19, Power: 8.6, Bandwidth: 57.9}
	return g, func(p Point) (float64, error) {
		d := core.Design{
			Kind:  core.Het,
			Label: "candidate",
			UCore: bounds.UCore{Mu: p["mu"], Phi: p["phi"]},
		}
		pt, err := ev.Optimize(d, 0.99, budgets)
		if err != nil {
			return 0, err
		}
		return pt.Speedup, nil
	}
}

func TestArgMaxParallelMatchesSerial(t *testing.T) {
	g, objective := frontierObjective(t)
	want, err := g.ArgMax(objective)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range determinismWorkerCounts() {
		got, err := g.ArgMaxParallel(context.Background(), w, objective)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: ArgMaxParallel = %+v, ArgMax = %+v", w, got, want)
		}
	}
}

// A flat objective has every point tied at the max; the winner must be
// the lowest row-major index (the serial scan's first point) at every
// worker count.
func TestArgMaxParallelTieBreaksOnLowestIndex(t *testing.T) {
	g := testGrid(t)
	flat := func(Point) (float64, error) { return 1, nil }
	want, err := g.ArgMax(flat)
	if err != nil {
		t.Fatal(err)
	}
	first, err := g.PointAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Point, first) {
		t.Fatalf("serial ArgMax tie-break drifted: %v", want.Point)
	}
	for _, w := range determinismWorkerCounts() {
		got, err := g.ArgMaxParallel(context.Background(), w, flat)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: tie broke to %v, want %v", w, got.Point, want.Point)
		}
	}
}

func TestArgMaxParallelAllInfeasible(t *testing.T) {
	g := testGrid(t)
	for _, w := range determinismWorkerCounts() {
		_, err := g.ArgMaxParallel(context.Background(), w, func(Point) (float64, error) {
			return 0, errors.New("infeasible")
		})
		if err == nil {
			t.Errorf("workers=%d: all-infeasible must fail", w)
		}
	}
}

// BenchmarkSweepGridSerial is the serial baseline: the frontier-style
// ArgMax over a 24x24 (mu, phi) grid. ReportAllocs verifies the Each
// scratch-map reuse (one Point per sweep, not one per cell).
func BenchmarkSweepGridSerial(b *testing.B) {
	g, objective := frontierObjective(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ArgMax(objective); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepGridParallel runs the identical sweep through the worker
// pool at GOMAXPROCS.
func BenchmarkSweepGridParallel(b *testing.B) {
	g, objective := frontierObjective(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ArgMaxParallel(context.Background(), 0, objective); err != nil {
			b.Fatal(err)
		}
	}
}
