package sweep

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randomGrid builds a random 1-3 axis grid from the seeded stream.
func randomGrid(t *testing.T, rng *rand.Rand) *Grid {
	t.Helper()
	axes := make([]Axis, 1+rng.Intn(3))
	for i := range axes {
		vals := make([]float64, 1+rng.Intn(6))
		for j := range vals {
			vals[j] = math.Round(rng.Float64()*1000) / 1000
		}
		axes[i] = Axis{Name: fmt.Sprintf("x%d", i), Values: vals}
	}
	g, err := NewGrid(axes...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPropertyArgMaxParallelMatchesSerial: for random grids, random
// objectives (including ones that error on part of the domain), and
// random worker counts, the parallel argmax must agree exactly with the
// serial scan — same value, same winning point, same infeasibility
// verdict. This is the determinism contract the serving cache depends
// on: worker count must never leak into results.
func TestPropertyArgMaxParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	workerChoices := []int{1, 2, 3, 7, 0, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 60; trial++ {
		g := randomGrid(t, rng)
		// A deterministic objective drawn per trial: a random quadratic
		// of the coordinates, erroring below a random feasibility floor.
		coef := make([]float64, 4)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		floor := rng.Float64() * 0.3
		objective := func(p Point) (float64, error) {
			// Sum in fixed axis order: map iteration order would make
			// float addition nondeterministic and fail the comparison
			// for reasons that have nothing to do with the scan.
			v := coef[0]
			for i := 0; i < 3; i++ {
				if x, ok := p[fmt.Sprintf("x%d", i)]; ok {
					v += coef[1]*x + coef[2]*x*x
				}
			}
			if sum := v + coef[3]; math.Abs(sum-math.Floor(sum)) < floor*0.1 {
				return 0, fmt.Errorf("infeasible at %v", p)
			}
			return v, nil
		}

		want, wantErr := g.ArgMax(objective)
		workers := workerChoices[rng.Intn(len(workerChoices))]
		got, gotErr := g.ArgMaxParallel(context.Background(), workers, objective)

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d (workers=%d): serial err %v, parallel err %v", trial, workers, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Value != want.Value {
			t.Fatalf("trial %d (workers=%d): parallel value %v, serial %v", trial, workers, got.Value, want.Value)
		}
		if len(got.Point) != len(want.Point) {
			t.Fatalf("trial %d: point arity %d vs %d", trial, len(got.Point), len(want.Point))
		}
		for k, v := range want.Point {
			if got.Point[k] != v {
				t.Fatalf("trial %d (workers=%d): winner differs at %s: %v vs %v — tie-break is not deterministic",
					trial, workers, k, got.Point[k], v)
			}
		}
	}
}
