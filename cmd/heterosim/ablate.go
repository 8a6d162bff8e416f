package main

import (
	"fmt"
	"os"

	"github.com/calcm/heterosim/internal/ablation"
	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/report"
	"github.com/calcm/heterosim/internal/sched"
)

// cmdAblate quantifies what each model ingredient contributes by removing
// it and re-projecting, plus a discrete-scheduling check of the model's
// "perfectly scheduled" assumption.
func cmdAblate(args []string) error {
	fs := newFlagSet("ablate")
	wname := fs.String("workload", "FFT-1024", "workload")
	f := fs.Float64("f", 0.999, "parallel fraction")
	node := fs.Int("node", 4, "roadmap node index (0=40nm .. 4=11nm)")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := paper.ParseWorkload(*wname)
	if err != nil {
		return err
	}

	render := func(title string, rs []ablation.Result, removedIsBetter bool) error {
		t := report.NewTable(title, "Design", "Full model", "Ablated", "Ratio")
		for _, r := range rs {
			t.AddRowf(r.Design, r.Baseline, r.Ablated, r.Ratio)
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		if removedIsBetter {
			fmt.Println("(ratio > 1: the removed constraint was binding that design)")
		} else {
			fmt.Println("(ratio < 1: the removed ingredient was helping that design)")
		}
		fmt.Println()
		return nil
	}

	// All three ablation studies run concurrently across the worker pool
	// and come back in a fixed order, so the report is deterministic.
	studies, err := ablation.Studies(w, *f, *node, *workers)
	if err != nil {
		return err
	}
	for i, part := range []struct {
		title           string
		removedIsBetter bool
	}{
		{"Ablation: bandwidth bound removed", true},
		{"Ablation: power bound removed", true},
		{"Ablation: sequential core pinned at r=1", false},
	} {
		title := fmt.Sprintf("%s (%s, f=%.3f, node %d)", part.title, w, *f, *node)
		if err := render(title, studies[i], part.removedIsBetter); err != nil {
			return err
		}
	}

	// The offload assumption at the 40nm FFT budgets.
	b := bounds.Budgets{Area: 19, Power: 8.6, Bandwidth: 57.9}
	off, orig, err := ablation.OffloadAssumption(*f, b, 16)
	if err != nil {
		return err
	}
	fmt.Printf("Offload assumption (40nm FFT budgets, f=%.3f): offload CMP %.2f vs original asymmetric %.2f\n\n",
		*f, off, orig)

	// Discrete-scheduling check of the fluid assumption.
	t := report.NewTable("Scheduling assumption: LPT vs fluid ideal (17 U-core lanes, mu=2.88)",
		"Task mix", "Model error")
	fine, err := sched.UniformTasks(10000, 0.01)
	if err != nil {
		return err
	}
	errFine, err := sched.ModelError(fine, 17, 2.88)
	if err != nil {
		return err
	}
	coarse, err := sched.HeavyTailedTasks(25, 1, 3)
	if err != nil {
		return err
	}
	errCoarse, err := sched.ModelError(coarse, 17, 2.88)
	if err != nil {
		return err
	}
	t.AddRow("10k uniform fine-grained tasks", fmt.Sprintf("%.2f%%", 100*errFine))
	t.AddRow("25 heavy-tailed coarse tasks", fmt.Sprintf("%.2f%%", 100*errCoarse))
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("(the paper's fluid model is exact for throughput-driven fine-grained work,")
	fmt.Println(" the regime its compute-bound measurement methodology enforces)")
	return nil
}
