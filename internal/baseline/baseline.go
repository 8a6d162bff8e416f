// Package baseline regenerates the paper's Section 5 measurement results:
// the FFT performance sweep of Figure 2 (raw and area-normalized), the
// power-breakdown stacks of Figure 3, the energy-efficiency and bandwidth
// plots of Figure 4, and the MMM/Black-Scholes summary of Table 4 together
// with the derived U-core parameters of Table 5.
package baseline

import (
	"fmt"
	"sort"

	"github.com/calcm/heterosim/internal/device"
	"github.com/calcm/heterosim/internal/itrs"
	"github.com/calcm/heterosim/internal/measure"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/sim"
	"github.com/calcm/heterosim/internal/ucore"
)

// FFTDevices lists the devices with FFT implementations, in figure order.
var FFTDevices = []paper.DeviceID{paper.CoreI7, paper.LX760, paper.GTX285, paper.GTX480, paper.ASIC}

// FFT sweep bounds (Figure 2 plots log2 N from 4 to 20).
const (
	FFTSweepLo = 4
	FFTSweepHi = 20
)

// Figure2 is the FFT performance dataset: pseudo-GFLOP/s per device per
// size, raw and normalized to 40nm-equivalent area.
type Figure2 struct {
	Log2N      []int
	Raw        map[paper.DeviceID][]float64 // pseudo-GFLOP/s
	Normalized map[paper.DeviceID][]float64 // pseudo-GFLOP/s per mm² (40nm)
}

// Figure3 is the power-breakdown dataset: one stack per (device, size).
type Figure3 struct {
	Log2N  []int
	Stacks map[paper.DeviceID][]device.PowerBreakdown
}

// Figure4 is the efficiency + bandwidth dataset.
type Figure4 struct {
	Log2N      []int
	Efficiency map[paper.DeviceID][]float64 // pseudo-GFLOPs per joule
	// Bandwidth series for the GPUs the paper instruments.
	CompulsoryGTX285 []float64
	MeasuredGTX285   []float64
	CompulsoryGTX480 []float64
}

// BuildFigure2 sweeps the FFT on every FFT-capable device, executing and
// verifying the real kernel at each size.
func BuildFigure2(s *sim.Simulator) (Figure2, error) {
	fig := Figure2{
		Raw:        make(map[paper.DeviceID][]float64),
		Normalized: make(map[paper.DeviceID][]float64),
	}
	for l2 := FFTSweepLo; l2 <= FFTSweepHi; l2++ {
		fig.Log2N = append(fig.Log2N, l2)
	}
	sweeps, err := s.SweepAllFFT(FFTSweepLo, FFTSweepHi, true)
	if err != nil {
		return Figure2{}, fmt.Errorf("baseline: FFT sweep: %w", err)
	}
	for _, id := range FFTDevices {
		d, err := device.ByID(id)
		if err != nil {
			return Figure2{}, err
		}
		for _, rec := range sweeps[id] {
			fig.Raw[id] = append(fig.Raw[id], rec.Throughput)
			area, err := normalizedFFTAreaMM2(d, rec.Size)
			if err != nil {
				return Figure2{}, err
			}
			fig.Normalized[id] = append(fig.Normalized[id], rec.Throughput/area)
		}
	}
	return fig, nil
}

// normalizedFFTAreaMM2 returns the 40nm-equivalent area the FFT design
// occupies on the device. ASIC cores have per-anchor-size areas; between
// anchors the nearest anchor's area is used.
func normalizedFFTAreaMM2(d device.Device, n int) (float64, error) {
	w := nearestFFTAnchor(n)
	native, err := device.NativeAreaMM2(d, w)
	if err != nil {
		return 0, err
	}
	return itrs.NormalizeAreaTo40nm(native, d.Table2.Nm)
}

func nearestFFTAnchor(n int) paper.WorkloadID {
	switch {
	case n <= 256:
		return paper.FFT64
	case n <= 4096:
		return paper.FFT1024
	default:
		return paper.FFT16384
	}
}

// BuildFigure3 collects the simulated power decomposition for every
// FFT-capable device across the sweep.
func BuildFigure3(s *sim.Simulator) (Figure3, error) {
	fig := Figure3{Stacks: make(map[paper.DeviceID][]device.PowerBreakdown)}
	for l2 := FFTSweepLo; l2 <= FFTSweepHi; l2++ {
		fig.Log2N = append(fig.Log2N, l2)
	}
	sweeps, err := s.SweepAllFFT(FFTSweepLo, FFTSweepHi, false)
	if err != nil {
		return Figure3{}, err
	}
	for _, id := range FFTDevices {
		for _, rec := range sweeps[id] {
			fig.Stacks[id] = append(fig.Stacks[id], rec.Power)
		}
	}
	return fig, nil
}

// BuildFigure4 collects energy efficiency for every device and the
// bandwidth-verification series for the GPUs.
func BuildFigure4(s *sim.Simulator) (Figure4, error) {
	fig := Figure4{Efficiency: make(map[paper.DeviceID][]float64)}
	for l2 := FFTSweepLo; l2 <= FFTSweepHi; l2++ {
		fig.Log2N = append(fig.Log2N, l2)
	}
	sweeps, err := s.SweepAllFFT(FFTSweepLo, FFTSweepHi, false)
	if err != nil {
		return Figure4{}, err
	}
	for _, id := range FFTDevices {
		for _, rec := range sweeps[id] {
			gflops := rec.Counts.FLOPs / 1e9
			fig.Efficiency[id] = append(fig.Efficiency[id], gflops/rec.EnergyJ())
			switch id {
			case paper.GTX285:
				fig.CompulsoryGTX285 = append(fig.CompulsoryGTX285, rec.CompulsoryGBs)
				fig.MeasuredGTX285 = append(fig.MeasuredGTX285, rec.MeasuredGBs)
			case paper.GTX480:
				fig.CompulsoryGTX480 = append(fig.CompulsoryGTX480, rec.CompulsoryGBs)
			}
		}
	}
	return fig, nil
}

// Table4Row mirrors the published Table 4 structure with regenerated
// values from the measurement pipeline.
type Table4Row struct {
	Device     paper.DeviceID
	Throughput float64
	PerMM2     float64
	PerJoule   float64
}

// BuildTable4 regenerates the MMM and Black-Scholes summary from a full
// measurement-database build.
func BuildTable4(rig *measure.Rig) (map[paper.WorkloadID][]Table4Row, error) {
	db, err := rig.BuildDatabase()
	if err != nil {
		return nil, err
	}
	return Table4From(db)
}

// Table4From regenerates the MMM and Black-Scholes summary from an
// already built measurement database.
func Table4From(db measure.Database) (map[paper.WorkloadID][]Table4Row, error) {
	out := make(map[paper.WorkloadID][]Table4Row)
	for _, w := range []paper.WorkloadID{paper.MMM, paper.BS} {
		for _, id := range paper.AllDevices {
			m, ok := db.Lookup(id, w)
			if !ok {
				continue
			}
			perMM2, err := m.PerMM2()
			if err != nil {
				return nil, err
			}
			perJ, err := m.PerJoule()
			if err != nil {
				return nil, err
			}
			out[w] = append(out[w], Table4Row{
				Device: id, Throughput: m.Throughput, PerMM2: perMM2, PerJoule: perJ,
			})
		}
	}
	return out, nil
}

// Table5Cell is one regenerated (device, workload) parameter pair plus
// the published reference for comparison.
type Table5Cell struct {
	Device    paper.DeviceID
	Workload  paper.WorkloadID
	Derived   ucore.Params
	Published ucore.Params
	HasRef    bool
}

// BuildTable5 runs the full calibration pipeline and pairs every derived
// cell with its published value, sorted by device then workload order.
func BuildTable5(rig *measure.Rig) ([]Table5Cell, error) {
	db, err := rig.BuildDatabase()
	if err != nil {
		return nil, err
	}
	return Table5From(db)
}

// Table5From is BuildTable5 over an already built measurement database.
func Table5From(db measure.Database) ([]Table5Cell, error) {
	derived, err := db.DeriveTable5()
	if err != nil {
		return nil, err
	}
	var cells []Table5Cell
	for dev, row := range derived {
		for w, p := range row {
			cell := Table5Cell{Device: dev, Workload: w, Derived: p}
			if pub, ok := ucore.PublishedParams(dev, w); ok {
				cell.Published = pub
				cell.HasRef = true
			}
			cells = append(cells, cell)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		di, dj := deviceRank(cells[i].Device), deviceRank(cells[j].Device)
		if di != dj {
			return di < dj
		}
		return workloadRank(cells[i].Workload) < workloadRank(cells[j].Workload)
	})
	return cells, nil
}

func deviceRank(d paper.DeviceID) int {
	for i, id := range paper.AllDevices {
		if id == d {
			return i
		}
	}
	return len(paper.AllDevices)
}

func workloadRank(w paper.WorkloadID) int {
	for i, id := range paper.AllWorkloads {
		if id == w {
			return i
		}
	}
	return len(paper.AllWorkloads)
}
