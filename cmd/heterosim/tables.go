package main

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/calcm/heterosim/internal/baseline"
	"github.com/calcm/heterosim/internal/itrs"
	"github.com/calcm/heterosim/internal/measure"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/report"
	"github.com/calcm/heterosim/internal/workload"
)

func cmdTable(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("table: which one? (1-6)")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("table: bad number %q", args[0])
	}
	switch n {
	case 1:
		return renderTable1(os.Stdout)
	case 2:
		return renderTable2(os.Stdout)
	case 3:
		return renderTable3(os.Stdout)
	case 4:
		return renderTable4(os.Stdout, idealDatabase)
	case 5:
		return renderTable5(os.Stdout, idealDatabase)
	case 6:
		return renderTable6(os.Stdout)
	default:
		return fmt.Errorf("table: no table %d in the paper", n)
	}
}

func renderTable1(out io.Writer) error {
	t := report.NewTable("Table 1: Bounds on area, power, and bandwidth (alpha = 1.75)",
		"Bound", "Symmetric", "Asym-offload", "Heterogeneous")
	t.AddRow("Area", "n <= A", "n <= A", "n <= A")
	t.AddRow("Parallel power", "n <= P/r^(a/2-1)", "n <= P + r", "n <= P/phi + r")
	t.AddRow("Serial power", "r^(a/2) <= P", "r^(a/2) <= P", "r^(a/2) <= P")
	t.AddRow("Parallel bandwidth", "n <= B*sqrt(r)", "n <= B + r", "n <= B/mu + r")
	t.AddRow("Serial bandwidth", "r <= B^2", "r <= B^2", "r <= B^2")
	return t.Render(out)
}

func renderTable2(out io.Writer) error {
	t := report.NewTable("Table 2: Summary of devices",
		"Device", "Year", "Process", "Die mm2", "Core mm2", "Clock GHz", "Mem GB", "BW GB/s")
	for _, id := range paper.AllDevices {
		d := paper.Table2[id]
		t.AddRowf(string(id), d.Year, d.Process, d.DieAreaMM2, d.CoreAreaMM2,
			d.ClockGHz, d.MemoryGB, d.MemBWGBs)
	}
	return t.Render(out)
}

func renderTable3(out io.Writer) error {
	t := report.NewTable("Table 3: Summary of workloads (implementations used per device)",
		"Workload", "Core i7", "GTX285", "GTX480", "R5870", "LX760/ASIC")
	rows := []struct {
		w    paper.WorkloadID
		name string
	}{
		{paper.MMM, "Dense Matrix Multiplication"},
		{paper.FFT1024, "Fast Fourier Transform"},
		{paper.BS, "Black-Scholes"},
	}
	dash := func(s string) string {
		if s == "" {
			return "-"
		}
		return s
	}
	for _, r := range rows {
		impls := paper.Table3[r.w]
		t.AddRow(r.name, dash(impls[paper.CoreI7]), dash(impls[paper.GTX285]),
			dash(impls[paper.GTX480]), dash(impls[paper.R5870]), dash(impls[paper.LX760]))
	}
	if err := t.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out, "\n(In this reproduction every implementation is a verified Go kernel")
	fmt.Fprintln(out, " mapped through calibrated analytic device models; see DESIGN.md.)")
	return nil
}

// idealDatabase builds the measurement database of the ideal rig, the
// one Tables 4 and 5 are regenerated from.
func idealDatabase() (measure.Database, error) {
	rig, err := measure.IdealRig()
	if err != nil {
		return measure.Database{}, err
	}
	return rig.BuildDatabase()
}

// renderTable4 renders Table 4 from the database db returns; heterosim
// all hands Tables 4 and 5 one shared build.
func renderTable4(out io.Writer, db func() (measure.Database, error)) error {
	d, err := db()
	if err != nil {
		return err
	}
	table, err := baseline.Table4From(d)
	if err != nil {
		return err
	}
	reg := workload.Registry()
	for _, w := range []paper.WorkloadID{paper.MMM, paper.BS} {
		info := reg[w]
		t := report.NewTable(
			fmt.Sprintf("Table 4 (%s): measured vs published", info.Name),
			"Device", info.ThroughputUnit, "per mm2 (40nm)", "per J",
			"pub "+info.ThroughputUnit, "pub/mm2", "pub/J")
		for _, row := range table[w] {
			pub := paper.Table4[w][row.Device]
			t.AddRowf(string(row.Device), row.Throughput, row.PerMM2, row.PerJoule,
				pub.Throughput, pub.PerMM2, pub.PerJoule)
		}
		if err := t.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

func renderTable5(out io.Writer, db func() (measure.Database, error)) error {
	d, err := db()
	if err != nil {
		return err
	}
	cells, err := baseline.Table5From(d)
	if err != nil {
		return err
	}
	t := report.NewTable("Table 5: derived U-core parameters (phi = rel. power, mu = rel. performance)",
		"Device", "Workload", "phi", "mu", "pub phi", "pub mu")
	for _, c := range cells {
		pubPhi, pubMu := "-", "-"
		if c.HasRef {
			pubPhi = report.FormatFloat(c.Published.Phi)
			pubMu = report.FormatFloat(c.Published.Mu)
		}
		t.AddRow(string(c.Device), string(c.Workload),
			report.FormatFloat(c.Derived.Phi), report.FormatFloat(c.Derived.Mu),
			pubPhi, pubMu)
	}
	return t.Render(out)
}

func renderTable6(out io.Writer) error {
	t := report.NewTable("Table 6: parameters assumed in technology scaling",
		"Year", "Node", "Core die mm2", "Core power W", "BW GB/s", "Max area (BCE)",
		"Rel pwr/xtor", "Rel BW")
	for _, n := range itrs.ITRS2009().Nodes() {
		t.AddRowf(n.Year, n.Name, itrs.CoreDieBudgetMM2, itrs.CorePowerBudgetW,
			n.BandwidthGBs(itrs.BaseBandwidthGBs), n.MaxAreaBCE,
			n.RelPowerPerXtor, n.RelBandwidth)
	}
	return t.Render(out)
}
