// Package measure simulates the paper's Section 4 measurement
// methodology: a current probe sampling device power in steady state,
// micro-benchmarks that isolate non-compute (uncore) power so it can be
// subtracted — the significant effort the paper describes for GPUs — and
// bandwidth counters used to verify workloads are compute-bound.
//
// The rig consumes execution records from the device simulator (package
// sim) and produces ucore.Measurement values, the inputs to the Table 5
// calibration. With a noiseless probe the pipeline recovers the device
// models' compute power exactly; with probe noise enabled, averaging over
// many samples converges to it, demonstrating the methodology rather than
// assuming it.
package measure

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/calcm/heterosim/internal/device"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/sim"
	"github.com/calcm/heterosim/internal/stats"
	"github.com/calcm/heterosim/internal/ucore"
)

// Probe is a simulated current probe: it reads a true wattage corrupted
// by zero-mean Gaussian noise with relative standard deviation noiseRel.
type Probe struct {
	noiseRel float64
	rng      *rand.Rand
}

// NewProbe builds a probe. noiseRel is the per-sample relative noise
// (0 for an ideal probe); seed makes runs reproducible.
func NewProbe(noiseRel float64, seed int64) (*Probe, error) {
	if noiseRel < 0 {
		return nil, errors.New("measure: noise must be non-negative")
	}
	return &Probe{noiseRel: noiseRel, rng: rand.New(rand.NewSource(seed))}, nil
}

// Sample returns n probe readings of a true power.
func (p *Probe) Sample(truthW float64, n int) ([]float64, error) {
	if truthW < 0 {
		return nil, errors.New("measure: power cannot be negative")
	}
	if n <= 0 {
		return nil, errors.New("measure: sample count must be positive")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = truthW * (1 + p.noiseRel*p.rng.NormFloat64())
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out, nil
}

// Mean returns the average of n probe readings.
func (p *Probe) Mean(truthW float64, n int) (float64, error) {
	xs, err := p.Sample(truthW, n)
	if err != nil {
		return 0, err
	}
	return stats.Mean(xs)
}

// Rig bundles the simulator, the probe, and the sampling policy.
type Rig struct {
	Sim     *sim.Simulator
	probe   *Probe
	samples int
}

// NewRig builds a measurement rig. samples is the number of probe
// readings averaged per measurement (the paper measured "in steady
// state"); must be positive.
func NewRig(s *sim.Simulator, noiseRel float64, seed int64, samples int) (*Rig, error) {
	if s == nil {
		return nil, errors.New("measure: nil simulator")
	}
	if samples <= 0 {
		return nil, errors.New("measure: samples must be positive")
	}
	p, err := NewProbe(noiseRel, seed)
	if err != nil {
		return nil, err
	}
	return &Rig{Sim: s, probe: p, samples: samples}, nil
}

// IdealRig returns a noiseless rig — the configuration used to build the
// canonical measurement database.
func IdealRig() (*Rig, error) {
	s, err := sim.New()
	if err != nil {
		return nil, err
	}
	return NewRig(s, 0, 1, 1)
}

// MeasureComputePower runs the full GPU-style subtraction methodology on
// one execution record:
//
//  1. probe total wall power with the kernel in steady state;
//  2. probe an idle micro-benchmark to estimate static uncore + residual;
//  3. probe a memory-stress micro-benchmark at the same operating point to
//     estimate traffic-proportional uncore power;
//  4. subtract (2) and (3) from (1).
func (r *Rig) MeasureComputePower(rec sim.Record) (float64, error) {
	b := rec.Power
	total, err := r.probe.Mean(b.Total(), r.samples)
	if err != nil {
		return 0, err
	}
	idle, err := r.probe.Mean(b.UncoreStatic+b.Unknown, r.samples)
	if err != nil {
		return 0, err
	}
	memBench, err := r.probe.Mean(b.UncoreDynamic, r.samples)
	if err != nil {
		return 0, err
	}
	compute := total - idle - memBench
	if compute <= 0 {
		return 0, fmt.Errorf("measure: subtraction produced non-positive compute power (%g W) for %s/%s",
			compute, rec.Device, rec.Workload)
	}
	return compute, nil
}

// Measurement converts an execution record into a calibration measurement
// using the rig's measured compute power and the device's native area for
// the workload.
func (r *Rig) Measurement(rec sim.Record) (ucore.Measurement, error) {
	d, err := device.ByID(rec.Device)
	if err != nil {
		return ucore.Measurement{}, err
	}
	area, err := device.NativeAreaMM2(d, rec.Workload)
	if err != nil {
		return ucore.Measurement{}, err
	}
	power, err := r.MeasureComputePower(rec)
	if err != nil {
		return ucore.Measurement{}, err
	}
	return ucore.Measurement{
		Device:     rec.Device,
		Workload:   rec.Workload,
		Throughput: rec.Throughput,
		AreaMM2:    area,
		Nm:         d.Table2.Nm,
		PowerW:     power,
	}, nil
}

// VerifyComputeBound checks the Section 5 requirement that a record's
// observed bandwidth stays below the device's board peak (with headroom
// fraction, e.g. 0.95), i.e. the kernel is compute-bound and performance
// scales with area as the model assumes. Devices without a published
// peak (FPGA/ASIC estimates) pass trivially.
func VerifyComputeBound(rec sim.Record, headroom float64) error {
	if headroom <= 0 || headroom > 1 {
		return errors.New("measure: headroom must be in (0, 1]")
	}
	d, err := device.ByID(rec.Device)
	if err != nil {
		return err
	}
	if d.PeakBandwidthGBs == 0 {
		return nil
	}
	if rec.MeasuredGBs >= headroom*d.PeakBandwidthGBs {
		return fmt.Errorf("measure: %s/%s at size %d is bandwidth-bound (%.1f of %.1f GB/s)",
			rec.Device, rec.Workload, rec.Size, rec.MeasuredGBs, d.PeakBandwidthGBs)
	}
	return nil
}

// Database is the set of calibration measurements — the reproduction's
// stand-in for the paper's lab notebook.
type Database struct {
	Measurements []ucore.Measurement
}

// BuildDatabase measures every (device, workload) pair the paper could
// obtain: MMM and BS at their Table 4 operating points and the three FFT
// anchor sizes, each verified compute-bound first. The kernels really
// execute, so a broken kernel poisons calibration, exactly as a broken
// benchmark would have in the lab: each of the five distinct kernel inputs
// (one MMM product, one BS portfolio, three FFT sizes) is executed and
// verified once, before the device loop, which then only probes records.
func (r *Rig) BuildDatabase() (Database, error) {
	recs, err := r.Sim.Run(databaseJobs(r.Sim), true)
	if err != nil {
		return Database{}, err
	}
	db := Database{Measurements: make([]ucore.Measurement, 0, len(recs))}
	for _, rec := range recs {
		if err := VerifyComputeBound(rec, 0.95); err != nil {
			return Database{}, err
		}
		m, err := r.Measurement(rec)
		if err != nil {
			return Database{}, err
		}
		db.Measurements = append(db.Measurements, m)
	}
	return db, nil
}

// databaseJobs lists the database's runs in catalog order, each device's
// MMM, BS and FFT anchors in turn — the order the probe samples them.
func databaseJobs(s *sim.Simulator) []sim.Job {
	var jobs []sim.Job
	for _, d := range device.Catalog() {
		if s.HasModel(d.ID, paper.MMM) {
			jobs = append(jobs, sim.Job{Device: d.ID, Kernel: sim.KernelMMM, Size: 1024, Block: int(paper.MMMBlockN)})
		}
		if s.HasModel(d.ID, paper.BS) {
			jobs = append(jobs, sim.Job{Device: d.ID, Kernel: sim.KernelBS, Size: 1 << 20})
		}
		if s.HasModel(d.ID, device.FFTFamily) {
			for _, n := range []int{64, 1024, 16384} {
				jobs = append(jobs, sim.Job{Device: d.ID, Kernel: sim.KernelFFT, Size: n})
			}
		}
	}
	return jobs
}

// DeriveTable5 runs the Section 5.1 calibration over the database.
func (db Database) DeriveTable5() (map[paper.DeviceID]map[paper.WorkloadID]ucore.Params, error) {
	return ucore.DeriveTable5(db.Measurements)
}

// Lookup returns the measurement for a device/workload pair.
func (db Database) Lookup(d paper.DeviceID, w paper.WorkloadID) (ucore.Measurement, bool) {
	for _, m := range db.Measurements {
		if m.Device == d && m.Workload == w {
			return m, true
		}
	}
	return ucore.Measurement{}, false
}
