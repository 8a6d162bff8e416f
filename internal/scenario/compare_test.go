package scenario

import (
	"math"
	"testing"

	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/project"
)

// traj builds a synthetic trajectory from (valid, speedup) samples.
func traj(label string, kind core.ChipKind, speedups ...float64) project.Trajectory {
	t := project.Trajectory{Design: core.Design{Kind: kind, Label: label}}
	for _, s := range speedups {
		p := project.NodePoint{Valid: !math.IsNaN(s)}
		if p.Valid {
			p.Point.Speedup = s
		}
		t.Points = append(t.Points, p)
	}
	for i := range t.Points {
		t.Points[i].Node.Name = []string{"45nm", "32nm", "22nm", "16nm", "11nm"}[i]
	}
	return t
}

var never = math.NaN()

func TestCrossovers(t *testing.T) {
	ts := []project.Trajectory{
		traj("(0) SymCMP", core.SymCMP, 2, 3, 4, 5, 6),
		traj("(1) AsymCMP", core.AsymCMP, 3, 4, 5, 6, 7),
		traj("fpga", core.Het, 1, 2, 6, 8, 9),       // overtakes sym at 22nm, asym at 22nm
		traj("asic", core.Het, 9, 9, 9, 9, 9),       // ahead from the first node
		traj("gpu", core.Het, 1, 1, 1, 1, 1),        // never overtakes
		traj("patchy", core.Het, never, 5, 5, 5, 5), // invalid nodes never count
	}
	got := Crossovers(ts)
	want := map[[2]string]int{
		{"fpga", "(0) SymCMP"}:    2,
		{"fpga", "(1) AsymCMP"}:   2,
		{"asic", "(0) SymCMP"}:    0,
		{"asic", "(1) AsymCMP"}:   0,
		{"gpu", "(0) SymCMP"}:     -1,
		{"gpu", "(1) AsymCMP"}:    -1,
		{"patchy", "(0) SymCMP"}:  1,
		{"patchy", "(1) AsymCMP"}: 1,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d crossovers, want %d: %+v", len(got), len(want), got)
	}
	for _, c := range got {
		wantIdx, ok := want[[2]string{c.Design, c.Over}]
		if !ok {
			t.Errorf("unexpected pair (%s over %s)", c.Design, c.Over)
			continue
		}
		if c.NodeIndex != wantIdx {
			t.Errorf("(%s over %s): NodeIndex = %d, want %d", c.Design, c.Over, c.NodeIndex, wantIdx)
		}
		if wantIdx == -1 && c.Node != "" {
			t.Errorf("(%s over %s): never-crossover has node %q", c.Design, c.Over, c.Node)
		}
		if wantIdx >= 0 && c.Node == "" {
			t.Errorf("(%s over %s): crossover at %d has no node name", c.Design, c.Over, wantIdx)
		}
	}
}

func TestDeltas(t *testing.T) {
	base := []project.Trajectory{
		traj("a", core.SymCMP, 2, 3),
		traj("b", core.Het, 4, never),
	}
	alt := []project.Trajectory{
		traj("a", core.SymCMP, 3, 3),
		traj("b", core.Het, 10, 12),
	}
	d := Deltas(base, alt)
	if len(d) != 2 || len(d[0]) != 2 {
		t.Fatalf("shape = %dx%d, want 2x2", len(d), len(d[0]))
	}
	if !d[0][0].Valid || d[0][0].Delta != 1 || d[0][0].Base != 2 || d[0][0].Alt != 3 {
		t.Errorf("d[0][0] = %+v", d[0][0])
	}
	if !d[0][1].Valid || d[0][1].Delta != 6 {
		t.Errorf("d[0][1] = %+v", d[0][1])
	}
	// b is infeasible in the baseline at node 1: the delta is undefined.
	if d[1][1].Valid {
		t.Errorf("d[1][1] valid despite infeasible baseline: %+v", d[1][1])
	}
	if d[1][0].Delta != 0 {
		t.Errorf("d[1][0].Delta = %v, want 0", d[1][0].Delta)
	}
}

// TestCrossoversOnRealProjection sanity-checks the helpers against a
// real scenario run: every (het, CMP) pair appears exactly once, and
// crossover indices point at a node where the het design really is
// ahead.
func TestCrossoversOnRealProjection(t *testing.T) {
	sc, err := Get(Baseline)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Run(sc, paper.FFT1024, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	hets, cmps := 0, 0
	for _, tr := range ts {
		if tr.Design.Kind == core.Het {
			hets++
		} else {
			cmps++
		}
	}
	cs := Crossovers(ts)
	if len(cs) != hets*cmps {
		t.Fatalf("got %d crossovers, want %d (%d het x %d cmp)", len(cs), hets*cmps, hets, cmps)
	}
	byLabel := make(map[string]project.Trajectory, len(ts))
	for _, tr := range ts {
		byLabel[tr.Design.Label] = tr
	}
	for _, c := range cs {
		if c.NodeIndex < 0 {
			continue
		}
		h, o := byLabel[c.Design], byLabel[c.Over]
		hp, op := h.Points[c.NodeIndex], o.Points[c.NodeIndex]
		if !hp.Valid || !op.Valid || hp.Point.Speedup <= op.Point.Speedup {
			t.Errorf("(%s over %s) at %s: not actually ahead", c.Design, c.Over, c.Node)
		}
		if hp.Node.Name != c.Node {
			t.Errorf("(%s over %s): node name %q != index %d's %q", c.Design, c.Over, c.Node, c.NodeIndex, hp.Node.Name)
		}
	}
}
