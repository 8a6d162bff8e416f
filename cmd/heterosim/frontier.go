package main

import (
	"context"
	"fmt"
	"os"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/report"
	"github.com/calcm/heterosim/internal/sweep"
)

// cmdFrontier sweeps the (mu, phi) U-core design space on a grid and
// reports the speedup surface plus the best point — the tool behind the
// designspace example, generalized. Every grid cell is an independent
// optimization, so both the surface and the argmax fan out across the
// worker pool; outputs are identical at any worker count.
func cmdFrontier(args []string) error {
	fs := newFlagSet("frontier")
	wname := fs.String("workload", "FFT-1024", "workload (sets the bandwidth scale)")
	f := fs.Float64("f", 0.99, "parallel fraction")
	node := fs.Int("node", 2, "roadmap node index (0=40nm .. 4=11nm)")
	muLo := fs.Float64("mu-lo", 0.5, "mu grid lower bound")
	muHi := fs.Float64("mu-hi", 64, "mu grid upper bound")
	phiLo := fs.Float64("phi-lo", 0.125, "phi grid lower bound")
	phiHi := fs.Float64("phi-hi", 4, "phi grid upper bound")
	steps := fs.Int("steps", 8, "grid points per axis")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := paper.ParseWorkload(*wname)
	if err != nil {
		return err
	}
	cfg := project.DefaultConfig(w)
	nodes := cfg.Roadmap.Nodes()
	if *node < 0 || *node >= len(nodes) {
		return fmt.Errorf("frontier: node index %d out of range", *node)
	}
	budgets, err := cfg.BudgetsAt(nodes[*node])
	if err != nil {
		return err
	}
	mus, err := sweep.Range(*muLo, *muHi, *steps)
	if err != nil {
		return err
	}
	phis, err := sweep.Range(*phiLo, *phiHi, *steps)
	if err != nil {
		return err
	}
	grid, err := sweep.NewGrid(
		sweep.Axis{Name: "phi", Values: phis},
		sweep.Axis{Name: "mu", Values: mus},
	)
	if err != nil {
		return err
	}
	ev := core.NewEvaluator()
	objective := func(p sweep.Point) (float64, error) {
		d := core.Design{
			Kind:  core.Het,
			Label: "candidate",
			UCore: bounds.UCore{Mu: p["mu"], Phi: p["phi"]},
		}
		pt, err := ev.Optimize(d, *f, budgets)
		if err != nil {
			return 0, err
		}
		return pt.Speedup, nil
	}

	// Evaluate every cell across the worker pool. The grid axes are
	// (phi, mu) with mu fastest, which is exactly the surface table's
	// row-major order; infeasible cells render as "-", not errors.
	cells, err := par.Map(context.Background(), grid.Size(), *workers,
		func(_ context.Context, i int) (string, error) {
			p, err := grid.PointAt(i)
			if err != nil {
				return "", err
			}
			v, err := objective(p)
			if err != nil {
				return "-", nil
			}
			return report.FormatFloat(v), nil
		})
	if err != nil {
		return err
	}

	// Surface table: one row per phi, one column per mu.
	headers := []string{"phi\\mu"}
	for _, mu := range mus {
		headers = append(headers, report.FormatFloat(mu))
	}
	t := report.NewTable(
		fmt.Sprintf("U-core (mu, phi) speedup surface: %s, f=%.3f, %s (A=%.0f P=%.1f B=%.1f BCE)",
			w, *f, nodes[*node].Name, budgets.Area, budgets.Power, budgets.Bandwidth),
		headers...)
	for pi, phi := range phis {
		row := []string{report.FormatFloat(phi)}
		row = append(row, cells[pi*len(mus):(pi+1)*len(mus)]...)
		t.AddRow(row...)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	best, err := grid.ArgMaxParallel(context.Background(), *workers, objective)
	if err != nil {
		return err
	}
	fmt.Printf("\nBest grid point: mu=%.3g phi=%.3g -> speedup %.2f (of %d candidates)\n",
		best.Point["mu"], best.Point["phi"], best.Value, grid.Size())
	return nil
}
