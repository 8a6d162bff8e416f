package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/report"
	"github.com/calcm/heterosim/internal/scenario"
)

// cmdCompare answers the same question as POST /v1/compare, locally: a
// set of Section 6.2 scenarios each run against the baseline, reduced
// to per-node speedup deltas and the crossover table ("at which node
// does each heterogeneous design overtake each CMP?"). Scenarios fan
// out across the worker pool; output order follows the -scenarios
// list, so bytes are identical at any worker count.
func cmdCompare(args []string) error {
	fs := newFlagSet("compare")
	wname := fs.String("workload", "FFT-1024", "workload")
	f := fs.Float64("f", 0.99, "parallel fraction")
	list := fs.String("scenarios", "1,2", "comma-separated scenario IDs (0-6, 0=baseline)")
	workers := workersFlag(fs)
	resolveModel := modelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := paper.ParseWorkload(*wname)
	if err != nil {
		return err
	}
	sel, err := resolveModel()
	if err != nil {
		return err
	}
	var ids []int
	seen := make(map[int]bool)
	for _, part := range strings.Split(*list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 6 {
			return fmt.Errorf("compare: scenario IDs are 0-6, got %q", part)
		}
		if seen[n] {
			return fmt.Errorf("compare: scenario %d listed twice", n)
		}
		seen[n] = true
		ids = append(ids, n)
	}
	if len(ids) == 0 {
		return fmt.Errorf("compare: -scenarios lists no scenario IDs")
	}
	scs := make([]scenario.Scenario, len(ids))
	for i, n := range ids {
		if scs[i], err = scenario.Get(scenario.ID(n)); err != nil {
			return err
		}
	}
	printModelBanner(sel)

	type result struct {
		base, alt []project.Trajectory
	}
	results, err := par.Map(context.Background(), len(scs), min(*workers, len(scs)),
		func(ctx context.Context, i int) (result, error) {
			base, alt, err := scenario.CompareModelCtx(ctx, scs[i], w, *f, *workers, sel.Factory)
			if err != nil {
				return result{}, fmt.Errorf("scenario %d: %w", ids[i], err)
			}
			return result{base: base, alt: alt}, nil
		})
	if err != nil {
		return err
	}

	for i, res := range results {
		if i > 0 {
			fmt.Println()
		}
		if err := renderCompare(ids[i], scs[i], res.base, res.alt, w, *f); err != nil {
			return err
		}
	}
	return nil
}

// renderCompare prints one scenario's delta table (alternative minus
// baseline speedup, per design per node) and its crossover table.
func renderCompare(id int, sc scenario.Scenario, base, alt []project.Trajectory, w paper.WorkloadID, f float64) error {
	deltas := scenario.Deltas(base, alt)
	if len(deltas) == 0 {
		return fmt.Errorf("scenario %d: baseline and alternative disagree on shape", id)
	}
	headers := []string{"Node"}
	for _, d := range deltas[0] {
		headers = append(headers, d.Label)
	}
	t := report.NewTable(
		fmt.Sprintf("Scenario %d (%s): speedup delta vs baseline, %s f=%.3f", id, sc.Name, w, f),
		headers...)
	for n, row := range deltas {
		cells := []string{alt[0].Points[n].Node.Name}
		for _, d := range row {
			if !d.Valid {
				cells = append(cells, "-")
			} else {
				cells = append(cells, report.FormatFloat(d.Delta))
			}
		}
		t.AddRow(cells...)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	fmt.Println()
	ct := report.NewTable(
		fmt.Sprintf("Scenario %d: crossover nodes (first node each heterogeneous design is strictly ahead)", id),
		"Design", "Overtakes", "Node")
	for _, c := range scenario.Crossovers(alt) {
		node := c.Node
		if c.NodeIndex < 0 {
			node = "never"
		}
		ct.AddRow(c.Design, c.Over, node)
	}
	return ct.Render(os.Stdout)
}
