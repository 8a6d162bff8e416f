// Package sim is the device execution simulator: it runs the repository's
// real kernel implementations (FFT, MMM, Black-Scholes), verifies their
// outputs against independent references, accounts their nominal work, and
// maps that work through the analytic device models to produce simulated
// wall time, power, and off-chip bandwidth — the raw material the
// measurement rig (package measure) turns into the paper's Section 5 data.
//
// Simulated time for a run is nominal work divided by the device model's
// throughput at that operating point; simulated off-chip traffic is the
// compulsory traffic, inflated by the device's out-of-core excess factor
// once the working set exceeds on-chip capacity (Figure 4 bottom).
package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/calcm/heterosim/internal/device"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/workload"
	"github.com/calcm/heterosim/internal/workload/blackscholes"
	"github.com/calcm/heterosim/internal/workload/fft"
	"github.com/calcm/heterosim/internal/workload/mmm"
)

// Record is one simulated kernel execution on one device.
type Record struct {
	Device   paper.DeviceID
	Workload paper.WorkloadID
	Size     int // FFT length, MMM dimension, or option count

	Counts     workload.Counts
	Seconds    float64 // simulated steady-state time for Counts
	Throughput float64 // work units per second (GFLOP/s-family or Mopt/s)

	Power device.PowerBreakdown // simulated wall decomposition

	CompulsoryGBs float64 // compulsory off-chip bandwidth during the run
	MeasuredGBs   float64 // simulated observed bandwidth (>= compulsory)

	// Executed reports that the real Go kernel ran on the record's capped
	// Input and was verified. A build checks each distinct Input once, so
	// records that share one share that check.
	Executed bool
}

// EnergyJ returns compute energy (compute power x time).
func (r Record) EnergyJ() float64 { return r.Power.Compute() * r.Seconds }

// Simulator owns the calibrated device models.
type Simulator struct {
	models map[paper.DeviceID]map[paper.WorkloadID]device.Model
}

// calibratedModels builds the calibrated model set once per process.
// It is a pure function of compiled-in tables, and a Model's curve
// points are unexported, so every Simulator shares the one set and only
// reads it.
var calibratedModels = sync.OnceValues(device.BuildModels)

// New returns a simulator over the full calibrated model set.
func New() (*Simulator, error) {
	models, err := calibratedModels()
	if err != nil {
		return nil, err
	}
	return &Simulator{models: models}, nil
}

// Model returns the model for a device/workload pair.
func (s *Simulator) Model(d paper.DeviceID, w paper.WorkloadID) (device.Model, error) {
	m, ok := s.models[d][w]
	if !ok {
		return device.Model{}, fmt.Errorf("sim: no model for %s/%s (the paper could not measure it)", d, w)
	}
	return m, nil
}

// HasModel reports whether the pair was measurable in the paper.
func (s *Simulator) HasModel(d paper.DeviceID, w paper.WorkloadID) bool {
	_, ok := s.models[d][w]
	return ok
}

// Kernel names one of the real Go kernels the simulator executes.
type Kernel uint8

const (
	KernelFFT Kernel = iota
	KernelMMM
	KernelBS
)

// Job asks for one simulated run: a kernel at a size on a device.
type Job struct {
	Device paper.DeviceID
	Kernel Kernel
	Size   int // FFT length, MMM dimension, or option count
	Block  int // MMM block edge; ignored by FFT and BS
}

// Run builds one record per job, in job order. When execute is set, every
// distinct Input the jobs name runs its real kernel and is verified
// against an independent reference exactly once, fanned out over the
// shared worker pool, before any record is returned; the records are then
// marked Executed, and an unverified kernel aborts the whole call.
// No result is remembered between calls: a second Run executes and
// verifies again, on the same process-wide operands (operandCache).
func (s *Simulator) Run(jobs []Job, execute bool) ([]Record, error) {
	out := make([]Record, len(jobs))
	for i, j := range jobs {
		rec, err := s.record(j)
		if err != nil {
			return nil, err
		}
		out[i] = rec
	}
	if !execute {
		return out, nil
	}
	if err := verify(distinctInputs(jobs)); err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Executed = true
	}
	return out, nil
}

// RunFFT simulates a size-n FFT on the device from its model alone; Run
// with execute set is the path that also executes and verifies the kernel.
func (s *Simulator) RunFFT(d paper.DeviceID, n int) (Record, error) {
	return s.record(Job{Device: d, Kernel: KernelFFT, Size: n})
}

// RunMMM simulates an n x n x n matrix multiplication blocked at block
// from the device model alone.
func (s *Simulator) RunMMM(d paper.DeviceID, n, block int) (Record, error) {
	return s.record(Job{Device: d, Kernel: KernelMMM, Size: n, Block: block})
}

// RunBS simulates pricing count options from the device model alone.
func (s *Simulator) RunBS(d paper.DeviceID, count int) (Record, error) {
	return s.record(Job{Device: d, Kernel: KernelBS, Size: count})
}

// record maps one job's nominal work through its device model.
func (s *Simulator) record(j Job) (Record, error) {
	var (
		family, w paper.WorkloadID
		counts    workload.Counts
		err       error
	)
	switch j.Kernel {
	case KernelFFT:
		family, w = device.FFTFamily, workloadIDForFFT(j.Size)
		counts, err = workload.FFTCounts(j.Size)
	case KernelMMM:
		family, w = paper.MMM, paper.MMM
		counts, err = workload.MMMCounts(j.Size, float64(j.Block))
	case KernelBS:
		family, w = paper.BS, paper.BS
		counts, err = workload.BSCounts(j.Size)
	default:
		return Record{}, fmt.Errorf("sim: unknown kernel %d", j.Kernel)
	}
	if err != nil {
		return Record{}, err
	}
	m, err := s.Model(j.Device, family)
	if err != nil {
		return Record{}, err
	}
	return s.finish(m, w, j.Size, counts)
}

// finish maps nominal work through the device model into a Record.
func (s *Simulator) finish(m device.Model, w paper.WorkloadID, size int, counts workload.Counts) (Record, error) {
	thr := m.ThroughputAt(size)
	if thr <= 0 {
		return Record{}, fmt.Errorf("sim: model %s/%s has no throughput at size %d", m.Device.ID, w, size)
	}
	// Work units: GFLOP for FLOP-counted kernels, Mopt for Black-Scholes.
	var unitsOfWork float64
	var bytesPerUnit float64
	if w == paper.BS {
		unitsOfWork = counts.Items / 1e6 // Mopt
		bytesPerUnit = counts.Bytes / counts.Items * 1e6
	} else {
		unitsOfWork = counts.FLOPs / 1e9 // GFLOP
		bytesPerUnit = counts.Bytes / counts.FLOPs * 1e9
	}
	seconds := unitsOfWork / thr
	// Bandwidth in GB/s: units/s x bytes-per-unit / 1e9.
	compulsory := thr * bytesPerUnit / 1e9
	measured := compulsory
	if knee := m.Device.OnChipKneeLog2N(); knee > 0 && sizeLog2(size) > float64(knee) {
		measured *= m.ExcessTrafficFactor
	}
	if m.Device.PeakBandwidthGBs > 0 && measured > 0.92*m.Device.PeakBandwidthGBs {
		measured = 0.92 * m.Device.PeakBandwidthGBs
	}
	return Record{
		Device:        m.Device.ID,
		Workload:      w,
		Size:          size,
		Counts:        counts,
		Seconds:       seconds,
		Throughput:    thr,
		Power:         m.BreakdownAt(size),
		CompulsoryGBs: compulsory,
		MeasuredGBs:   measured,
	}, nil
}

// SweepFFT simulates FFTs for log2 sizes [lo2, hi2] on one device. With
// execute set, Run verifies each distinct capped size once: sizes above
// the execution cap share the capped transform's single check, so 4..20
// verifies 13 inputs, not 17. Sizes the device has no model for return an
// error.
func (s *Simulator) SweepFFT(d paper.DeviceID, lo2, hi2 int, execute bool) ([]Record, error) {
	jobs, err := fftSweepJobs([]paper.DeviceID{d}, lo2, hi2)
	if err != nil {
		return nil, err
	}
	return s.Run(jobs, execute)
}

// fftSweepJobs lists the FFT jobs for log2 sizes [lo2, hi2], device-major.
func fftSweepJobs(devices []paper.DeviceID, lo2, hi2 int) ([]Job, error) {
	if lo2 < 1 || hi2 < lo2 {
		return nil, fmt.Errorf("sim: bad sweep range [%d, %d]", lo2, hi2)
	}
	jobs := make([]Job, 0, len(devices)*(hi2-lo2+1))
	for _, d := range devices {
		for l2 := lo2; l2 <= hi2; l2++ {
			jobs = append(jobs, Job{Device: d, Kernel: KernelFFT, Size: 1 << uint(l2)})
		}
	}
	return jobs, nil
}

// CompulsoryOnly returns what the record's bandwidth would be if the
// device achieved exactly compulsory traffic — Figure 4's reference line.
func CompulsoryOnly(r Record) float64 { return r.CompulsoryGBs }

// --- kernel execution & verification ---------------------------------------

// Input is a kernel input as it really executes: the job's size capped to
// the kernel's execution bound and, for MMM, the block edge capped to the
// matrix. The check is a pure function of its Input (the device model,
// not the Go runtime, determines simulated performance), so jobs that
// share an Input share one verification.
type Input struct {
	Kernel Kernel
	N      int // capped FFT length, MMM dimension, or option count
	Block  int // capped MMM block edge; 0 for FFT and BS
}

// Execution caps keep verification cheap: a larger request verifies the
// congruent transform, product or portfolio at the cap instead.
const (
	maxExecFFT = 1 << 16
	maxExecMMM = 192
	maxExecBS  = 1 << 15
)

// Input returns the capped input the job's kernel executes.
func (j Job) Input() Input {
	switch j.Kernel {
	case KernelFFT:
		return Input{Kernel: KernelFFT, N: min(j.Size, maxExecFFT)}
	case KernelMMM:
		n := min(j.Size, maxExecMMM)
		return Input{Kernel: KernelMMM, N: n, Block: min(j.Block, n)}
	case KernelBS:
		return Input{Kernel: KernelBS, N: min(j.Size, maxExecBS)}
	}
	return Input{Kernel: j.Kernel, N: j.Size}
}

// distinctInputs returns each Input the jobs name once, costliest first,
// so a worker pool starts the long checks before the short ones.
func distinctInputs(jobs []Job) []Input {
	seen := make(map[Input]bool, len(jobs))
	var out []Input
	for _, j := range jobs {
		in := j.Input()
		if !seen[in] {
			seen[in] = true
			out = append(out, in)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].cost() > out[b].cost() })
	return out
}

// cost is a rough operation count of the input's check, used only to
// order the checks.
func (in Input) cost() float64 {
	n := float64(in.N)
	switch in.Kernel {
	case KernelFFT:
		return 2 * 5 * n * sizeLog2(in.N) // planned transform + recursive reference
	case KernelMMM:
		return 2 * 2 * n * n * n // blocked parallel product + naive reference
	default:
		return 2 * 72 * n // parallel + serial pricing
	}
}

// check executes the input's kernel on the process-wide operands and
// verifies its output.
func (in Input) check() error { return checkOperands.check(in) }

// check executes the input's kernel on the cache's operands for it and
// verifies the output against an independent reference. The operands
// are shared and read-only; every output, the reference's included, is
// made afresh by each check.
func (c *operandCache) check(in Input) error {
	ops, err := c.get(in)
	if err != nil {
		return err
	}
	switch in.Kernel {
	case KernelFFT:
		return executeFFT(ops.signal)
	case KernelMMM:
		return executeMMM(ops.a, ops.b, in.Block)
	case KernelBS:
		return executeBS(ops.portfolio)
	}
	return fmt.Errorf("sim: unknown kernel %d", in.Kernel)
}

// executeFFT transforms the signal x through the planned kernel and
// verifies it against the recursive reference.
func executeFFT(x []complex128) error {
	n := len(x)
	want, err := fft.ForwardRecursive(x)
	if err != nil {
		return err
	}
	// Execute through the planned path (the production transform shape)
	// and cross-check against the recursive reference. The planned
	// transform works in place, so it runs on a copy: x is shared with
	// every other check of n. The package-level plan cache makes every
	// check after the first of a size setup-free.
	plan, err := fft.PlanFor(n)
	if err != nil {
		return err
	}
	got := append([]complex128(nil), x...)
	if err := plan.Execute(got); err != nil {
		return err
	}
	diff, err := fft.MaxAbsDiff(got, want)
	if err != nil {
		return err
	}
	if diff > 1e-8*float64(n) {
		return fmt.Errorf("sim: FFT verification failed at n=%d (diff %g)", n, diff)
	}
	return nil
}

// executeMMM multiplies a and b with the blocked parallel kernel and
// verifies the product against the naive one.
func executeMMM(a, b *mmm.Matrix, block int) error {
	want, err := mmm.Naive(a, b)
	if err != nil {
		return err
	}
	got, err := mmm.Parallel(a, b, block, 0)
	if err != nil {
		return err
	}
	if !got.Equalish(want, 1e-8*float64(a.Rows)) {
		return errors.New("sim: MMM verification failed")
	}
	return nil
}

// executeBS prices a portfolio in parallel and checks it against serial
// pricing and put-call parity.
func executeBS(opts []blackscholes.Option) error {
	par, err := blackscholes.PriceBatchParallel(opts, 0)
	if err != nil {
		return err
	}
	ser, err := blackscholes.PriceBatch(opts, nil)
	if err != nil {
		return err
	}
	for i := range ser {
		if ser[i] != par[i] {
			return fmt.Errorf("sim: BS verification failed at option %d", i)
		}
	}
	// Parity spot-check on the first option.
	o := opts[0]
	co, po := o, o
	co.Kind, po.Kind = blackscholes.Call, blackscholes.Put
	c, err := blackscholes.Price(co)
	if err != nil {
		return err
	}
	p, err := blackscholes.Price(po)
	if err != nil {
		return err
	}
	if resid := blackscholes.Parity(c, p, o); math.Abs(resid) > 1e-8*o.Spot {
		return fmt.Errorf("sim: put-call parity violated: %g", resid)
	}
	return nil
}

func workloadIDForFFT(n int) paper.WorkloadID {
	switch n {
	case 64:
		return paper.FFT64
	case 1024:
		return paper.FFT1024
	case 16384:
		return paper.FFT16384
	default:
		return paper.WorkloadID(fmt.Sprintf("FFT-%d", n))
	}
}

func sizeLog2(n int) float64 {
	if n < 2 {
		return 0
	}
	return math.Log2(float64(n))
}
