package baseline

import (
	"math"
	"testing"

	"github.com/calcm/heterosim/internal/measure"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/sim"
)

func newSim(t *testing.T) *sim.Simulator {
	t.Helper()
	s, err := sim.New()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildFigure2(t *testing.T) {
	fig, err := BuildFigure2(newSim(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Log2N) != 17 {
		t.Fatalf("sizes = %d, want 17 (2^4..2^20)", len(fig.Log2N))
	}
	for _, id := range FFTDevices {
		if len(fig.Raw[id]) != 17 || len(fig.Normalized[id]) != 17 {
			t.Errorf("%s: incomplete series", id)
		}
	}
	// Paper: ASIC ~100x over flexible devices and ~1000x over the i7 in
	// area-normalized performance (at the anchor sizes).
	idx := 10 - 4 // N = 1024
	asic := fig.Normalized[paper.ASIC][idx]
	i7 := fig.Normalized[paper.CoreI7][idx]
	gtx := fig.Normalized[paper.GTX285][idx]
	if r := asic / i7; r < 300 || r > 3000 {
		t.Errorf("ASIC/i7 normalized = %g, want ~1000x ballpark", r)
	}
	if r := asic / gtx; r < 50 || r > 500 {
		t.Errorf("ASIC/GTX285 normalized = %g, want ~100x ballpark", r)
	}
	// Raw i7 curve matches the published anchors where defined.
	for i, l2 := range fig.Log2N {
		if want, ok := paper.CoreI7FFTAnchors[1<<uint(l2)]; ok {
			if got := fig.Raw[paper.CoreI7][i]; math.Abs(got-want) > 1e-9 {
				t.Errorf("i7 raw at 2^%d = %g, want %g", l2, got, want)
			}
		}
	}
}

func TestBuildFigure3(t *testing.T) {
	fig, err := BuildFigure3(newSim(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range FFTDevices {
		stacks := fig.Stacks[id]
		if len(stacks) != len(fig.Log2N) {
			t.Fatalf("%s: %d stacks", id, len(stacks))
		}
		for i, st := range stacks {
			if st.Total() <= 0 {
				t.Errorf("%s stack %d non-positive total", id, i)
			}
			if st.Compute() > st.Total() {
				t.Errorf("%s stack %d compute exceeds total", id, i)
			}
		}
	}
	// GPUs dissipate substantial uncore power; ASIC does not.
	gtx := fig.Stacks[paper.GTX285][6]
	if gtx.UncoreStatic+gtx.UncoreDynamic < 20 {
		t.Error("GTX285 uncore power should be substantial")
	}
	asic := fig.Stacks[paper.ASIC][6]
	if asic.UncoreStatic+asic.UncoreDynamic > 1e-6 {
		t.Error("ASIC uncore power should be ~0")
	}
}

func TestBuildFigure4(t *testing.T) {
	fig, err := BuildFigure4(newSim(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ASIC ~two orders of magnitude over the i7 in energy
	// efficiency and ~10x over GPUs/FPGA.
	idx := 10 - 4
	asic := fig.Efficiency[paper.ASIC][idx]
	i7 := fig.Efficiency[paper.CoreI7][idx]
	gtx := fig.Efficiency[paper.GTX285][idx]
	if r := asic / i7; r < 30 || r > 1000 {
		t.Errorf("ASIC/i7 efficiency = %g, want ~100x ballpark", r)
	}
	if r := asic / gtx; r < 3 || r > 100 {
		t.Errorf("ASIC/GTX efficiency = %g, want ~10x ballpark", r)
	}
	// Bandwidth verification series: measured == compulsory below the
	// knee (2^12), diverges above, and never hits the 159 GB/s peak.
	if len(fig.MeasuredGTX285) != len(fig.Log2N) {
		t.Fatal("incomplete GTX285 bandwidth series")
	}
	for i, l2 := range fig.Log2N {
		comp, meas := fig.CompulsoryGTX285[i], fig.MeasuredGTX285[i]
		if l2 <= 12 && math.Abs(comp-meas) > 1e-9 {
			t.Errorf("2^%d: measured %g != compulsory %g below knee", l2, meas, comp)
		}
		if l2 > 12 && meas <= comp {
			t.Errorf("2^%d: measured %g should exceed compulsory %g above knee", l2, meas, comp)
		}
		if meas >= 159 {
			t.Errorf("2^%d: measured %g must stay below peak", l2, meas)
		}
	}
	if len(fig.CompulsoryGTX480) != len(fig.Log2N) {
		t.Error("missing GTX480 compulsory series")
	}
}

func TestBuildTable4MatchesPublished(t *testing.T) {
	rig, err := measure.IdealRig()
	if err != nil {
		t.Fatal(err)
	}
	table, err := BuildTable4(rig)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []paper.WorkloadID{paper.MMM, paper.BS} {
		rows := table[w]
		if len(rows) != len(paper.Table4[w]) {
			t.Errorf("%s: %d rows, want %d", w, len(rows), len(paper.Table4[w]))
		}
		for _, row := range rows {
			want := paper.Table4[w][row.Device]
			if math.Abs(row.Throughput/want.Throughput-1) > 1e-9 {
				t.Errorf("%s/%s throughput = %g, want %g", row.Device, w, row.Throughput, want.Throughput)
			}
			if math.Abs(row.PerMM2/want.PerMM2-1) > 0.02 {
				t.Errorf("%s/%s per-mm² = %g, want %g", row.Device, w, row.PerMM2, want.PerMM2)
			}
			if math.Abs(row.PerJoule/want.PerJoule-1) > 0.02 {
				t.Errorf("%s/%s per-joule = %g, want %g", row.Device, w, row.PerJoule, want.PerJoule)
			}
		}
	}
}

func TestBuildTable5MatchesPublished(t *testing.T) {
	rig, err := measure.IdealRig()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := BuildTable5(rig)
	if err != nil {
		t.Fatal(err)
	}
	// Every published cell appears, with matching values.
	published := 0
	for _, c := range cells {
		if !c.HasRef {
			t.Errorf("%s/%s derived without published reference", c.Device, c.Workload)
			continue
		}
		published++
		if math.Abs(c.Derived.Mu/c.Published.Mu-1) > 0.02 {
			t.Errorf("%s/%s mu = %g, published %g", c.Device, c.Workload, c.Derived.Mu, c.Published.Mu)
		}
		if math.Abs(c.Derived.Phi/c.Published.Phi-1) > 0.02 {
			t.Errorf("%s/%s phi = %g, published %g", c.Device, c.Workload, c.Derived.Phi, c.Published.Phi)
		}
	}
	want := 0
	for _, row := range paper.Table5 {
		want += len(row)
	}
	if published != want {
		t.Errorf("checked %d cells, want %d", published, want)
	}
	// Sorted by device then workload.
	for i := 1; i < len(cells); i++ {
		di, dj := deviceRank(cells[i-1].Device), deviceRank(cells[i].Device)
		if di > dj {
			t.Errorf("cells out of device order at %d", i)
		}
	}
}

// TestReproductionAllocs gates the allocation cost of regenerating
// Figure 2 and Table 5. Both execute and verify every distinct kernel
// input the records name, so a kernel that allocates per recursion node
// or per loop level shows up here. The bound is about twice the measured
// 280 (Figure 2) and 197 (Table 5) allocations; the input pins in sim
// and measure, not this bound, catch an input verified twice.
func TestReproductionAllocs(t *testing.T) {
	s := newSim(t)
	rig, err := measure.IdealRig()
	if err != nil {
		t.Fatal(err)
	}
	const limit = 600
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"BuildFigure2", func() error { _, err := BuildFigure2(s); return err }},
		{"BuildTable5", func() error { _, err := BuildTable5(rig); return err }},
	} {
		var runErr error
		allocs := testing.AllocsPerRun(1, func() {
			if err := c.run(); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", c.name, runErr)
		}
		if allocs >= limit {
			t.Errorf("%s allocs = %.0f, want < %d", c.name, allocs, limit)
		}
		t.Logf("%s allocs = %.0f", c.name, allocs)
	}
}

func BenchmarkBuildFigure2(b *testing.B) {
	s, err := sim.New()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildFigure2(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildTable5(b *testing.B) {
	rig, err := measure.IdealRig()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTable5(rig); err != nil {
			b.Fatal(err)
		}
	}
}
