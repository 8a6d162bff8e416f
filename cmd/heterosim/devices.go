package main

import (
	"fmt"
	"os"

	"github.com/calcm/heterosim/internal/device"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/report"
	"github.com/calcm/heterosim/internal/sim"
)

// cmdDevices lists the simulated device catalog and, per device, the
// workload operating points the models expose.
func cmdDevices(args []string) error {
	fs := newFlagSet("devices")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t := report.NewTable("Device catalog (Table 2 + simulator attributes)",
		"Device", "Kind", "Node", "Core mm2", "Clock GHz", "Peak BW GB/s", "On-chip knee (log2 N)")
	for _, d := range device.Catalog() {
		knee := "-"
		if k := d.OnChipKneeLog2N(); k > 0 {
			knee = fmt.Sprintf("%d", k)
		}
		peak := "-"
		if d.PeakBandwidthGBs > 0 {
			peak = report.FormatFloat(d.PeakBandwidthGBs)
		}
		t.AddRowf(string(d.ID), d.Kind.String(), d.Table2.Process,
			d.Table2.CoreAreaMM2, d.Table2.ClockGHz, peak, knee)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	s, err := sim.New()
	if err != nil {
		return err
	}
	ops := report.NewTable("Model operating points (throughput, compute watts)",
		"Device", "MMM", "BS", "FFT-64", "FFT-1024", "FFT-16384")
	for _, d := range device.Catalog() {
		row := []string{string(d.ID)}
		cell := func(rec sim.Record, err error, unit string) string {
			if err != nil {
				return "-"
			}
			return fmt.Sprintf("%s %s / %sW",
				report.FormatFloat(rec.Throughput), unit,
				report.FormatFloat(rec.Power.Compute()))
		}
		mmm, errM := s.RunMMM(d.ID, 1024, int(paper.MMMBlockN))
		row = append(row, cell(mmm, errM, "GF/s"))
		bs, errB := s.RunBS(d.ID, 1<<20)
		row = append(row, cell(bs, errB, "Mopt/s"))
		for _, n := range []int{64, 1024, 16384} {
			rec, err := s.RunFFT(d.ID, n)
			row = append(row, cell(rec, err, "GF/s"))
		}
		ops.AddRow(row...)
	}
	return ops.Render(os.Stdout)
}
