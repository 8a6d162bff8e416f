// Package paper holds the published numbers from Chung et al. (MICRO
// 2010) as Go data: the device summary (Table 2), the workload matrix
// (Table 3), the measured MMM/Black-Scholes results (Table 4), the derived
// U-core parameters (Table 5), and assorted constants from the text.
//
// These values serve three purposes in the reproduction:
//
//  1. Calibration targets — the device simulator's analytic models are fit
//     so that simulated measurements reproduce them.
//  2. Test oracles — the calibration pipeline re-derives Table 5 from
//     simulated measurements and asserts agreement with the published
//     values.
//  3. Report baselines — EXPERIMENTS.md compares regenerated outputs
//     against them.
package paper

import (
	"fmt"
	"strings"
)

// DeviceID identifies one of the measured platforms.
type DeviceID string

// The six devices of Table 2, plus the derived BCE reference.
const (
	CoreI7 DeviceID = "Core i7-960"
	GTX285 DeviceID = "GTX285"
	GTX480 DeviceID = "GTX480"
	R5870  DeviceID = "R5870"
	LX760  DeviceID = "V6-LX760"
	ASIC   DeviceID = "ASIC"
)

// AllDevices lists the devices in the paper's column order.
var AllDevices = []DeviceID{CoreI7, GTX285, GTX480, R5870, LX760, ASIC}

// WorkloadID identifies one of the studied kernels.
type WorkloadID string

// The three workloads of Table 3. FFT carries an input size; the three
// sizes of Table 5 get their own IDs.
const (
	MMM      WorkloadID = "MMM"
	BS       WorkloadID = "BS"
	FFT64    WorkloadID = "FFT-64"
	FFT1024  WorkloadID = "FFT-1024"
	FFT16384 WorkloadID = "FFT-16384"
)

// AllWorkloads lists the Table 5 column order.
var AllWorkloads = []WorkloadID{MMM, BS, FFT64, FFT1024, FFT16384}

// ParseWorkload maps a user spelling onto a workload, ignoring case:
// the ID itself, "blackscholes" for BS, "fft" for FFT-1024, and each FFT
// size with or without its dash. The CLI and the HTTP API both use it.
func ParseWorkload(s string) (WorkloadID, error) {
	switch strings.ToLower(s) {
	case "mmm":
		return MMM, nil
	case "bs", "blackscholes":
		return BS, nil
	case "fft-64", "fft64":
		return FFT64, nil
	case "fft-1024", "fft1024", "fft":
		return FFT1024, nil
	case "fft-16384", "fft16384":
		return FFT16384, nil
	default:
		return "", fmt.Errorf("unknown workload %q (want MMM, BS, FFT-64, FFT-1024, FFT-16384)", s)
	}
}

// Constants from the modeling sections.
const (
	// Alpha is the sequential power-law exponent (Grochowski et al.).
	Alpha = 1.75
	// SeqCoreBCE is r for the Core i7: one i7 core ~ 2 BCE (Atom-based).
	SeqCoreBCE = 2.0
	// AtomAreaMM2 is the Intel Atom die area at 45nm used to size the BCE.
	AtomAreaMM2 = 26.0
	// AtomNonComputeFraction is subtracted from the Atom for non-compute.
	AtomNonComputeFraction = 0.10
	// MaxSweepR is the largest sequential-core size swept in Section 6.
	MaxSweepR = 16
	// FFTBytesPerElement: single-precision complex in/out streaming
	// (16 bytes moved per point, per the paper's footnote 2 denominator).
	FFTBytesPerElement = 16.0
	// BSBytesPerOption is the compulsory traffic of one Black-Scholes
	// option evaluation (footnote: 10 bytes/option).
	BSBytesPerOption = 10.0
	// MMMBlockN is the blocking size assumed for MMM compulsory
	// bandwidth (footnote 3).
	MMMBlockN = 128.0
)

// Table2Device is one column of Table 2.
type Table2Device struct {
	ID          DeviceID
	Year        int
	Process     string  // foundry / node label as printed
	Nm          int     // feature size in nanometers
	DieAreaMM2  float64 // 0 when not published
	CoreAreaMM2 float64 // core+cache only area; 0 when not published
	ClockGHz    float64 // 0 when not applicable
	MemoryGB    float64
	MemBWGBs    float64 // platform memory bandwidth
}

// Table2 reproduces the device summary.
var Table2 = map[DeviceID]Table2Device{
	CoreI7: {ID: CoreI7, Year: 2009, Process: "Intel/45nm", Nm: 45,
		DieAreaMM2: 263, CoreAreaMM2: 193, ClockGHz: 3.2, MemoryGB: 3, MemBWGBs: 32},
	GTX285: {ID: GTX285, Year: 2008, Process: "TSMC/55nm", Nm: 55,
		DieAreaMM2: 470, CoreAreaMM2: 338, ClockGHz: 1.476, MemoryGB: 1, MemBWGBs: 159},
	GTX480: {ID: GTX480, Year: 2010, Process: "TSMC/40nm", Nm: 40,
		DieAreaMM2: 529, CoreAreaMM2: 422, ClockGHz: 1.4, MemoryGB: 1.5, MemBWGBs: 177.4},
	R5870: {ID: R5870, Year: 2009, Process: "TSMC/40nm", Nm: 40,
		DieAreaMM2: 334, CoreAreaMM2: 334 * 0.75, ClockGHz: 1.476, MemoryGB: 1, MemBWGBs: 153.6},
	LX760: {ID: LX760, Year: 2009, Process: "UMC-Samsung/40nm", Nm: 40,
		// The paper prices FPGA area at ~0.00191 mm^2 per LUT including
		// amortized overheads; Table 4's normalized metrics imply an
		// effective utilized-fabric area of ~385 mm^2.
		DieAreaMM2: 0, CoreAreaMM2: 385, ClockGHz: 0, MemoryGB: 0, MemBWGBs: 0},
	ASIC: {ID: ASIC, Year: 2007, Process: "65nm", Nm: 65,
		DieAreaMM2: 0, CoreAreaMM2: 0, ClockGHz: 0, MemoryGB: 0, MemBWGBs: 0},
}

// AreaPerLUTMM2 is the paper's estimated FPGA area per LUT (including
// amortized flip-flop, RAM, multiplier, and interconnect overhead).
const AreaPerLUTMM2 = 0.00191

// Table3Entry records which implementation the paper used for one
// (workload, device) pair; empty string means "not obtained".
var Table3 = map[WorkloadID]map[DeviceID]string{
	MMM: {
		CoreI7: "MKL 10.2.3", GTX285: "CUBLAS 2.3", GTX480: "CUBLAS 3.0/3.1beta",
		R5870: "CAL++", LX760: "Bluespec (by hand)", ASIC: "Bluespec (by hand)",
	},
	BS: {
		CoreI7: "PARSEC (modified)", GTX285: "CUDA 2.3", GTX480: "",
		R5870: "", LX760: "Verilog (generated)", ASIC: "Verilog (generated)",
	},
	FFT1024: {
		CoreI7: "Spiral", GTX285: "CUFFT 2.3/3.0/3.1beta", GTX480: "CUFFT 3.0/3.1beta",
		R5870: "", LX760: "Verilog (Spiral-generated)", ASIC: "Verilog (Spiral-generated)",
	},
}

// Table4Row is one device row of Table 4: absolute throughput, area-
// normalized throughput (40nm-equivalent mm^2), and energy efficiency.
// Units are GFLOP/s-family for MMM and Mopt/s-family for Black-Scholes.
type Table4Row struct {
	Throughput float64 // GFLOP/s or Mopt/s
	PerMM2     float64 // per 40nm-equivalent mm^2
	PerJoule   float64 // per joule (GFLOP/J or Mopt/J)
}

// Table4 reproduces the published MMM and Black-Scholes summary. Devices
// the paper could not measure are absent.
var Table4 = map[WorkloadID]map[DeviceID]Table4Row{
	MMM: {
		CoreI7: {96, 0.50, 1.14},
		GTX285: {425, 2.40, 6.78},
		GTX480: {541, 1.28, 3.52},
		R5870:  {1491, 5.95, 9.87},
		LX760:  {204, 0.53, 3.62},
		ASIC:   {694, 19.28, 50.73},
	},
	BS: {
		CoreI7: {487, 2.52, 4.88},
		GTX285: {10756, 60.72, 189},
		LX760:  {7800, 20.26, 138},
		ASIC:   {25532, 1719, 642.5},
	},
}

// UCoreParam is one (phi, mu) cell of Table 5.
type UCoreParam struct {
	Phi float64 // relative BCE power
	Mu  float64 // relative BCE performance
}

// Table5 reproduces the published U-core parameters. Missing device/
// workload combinations (the paper's dashes) are absent from the maps.
var Table5 = map[DeviceID]map[WorkloadID]UCoreParam{
	GTX285: {
		MMM: {0.74, 3.41}, BS: {0.57, 17.0},
		FFT64: {0.59, 2.42}, FFT1024: {0.63, 2.88}, FFT16384: {0.89, 3.75},
	},
	GTX480: {
		MMM:   {0.77, 1.83},
		FFT64: {0.39, 1.56}, FFT1024: {0.47, 2.20}, FFT16384: {0.66, 2.83},
	},
	R5870: {
		MMM: {1.27, 8.47},
	},
	LX760: {
		MMM: {0.31, 0.75}, BS: {0.26, 5.68},
		FFT64: {0.29, 2.81}, FFT1024: {0.29, 2.02}, FFT16384: {0.37, 3.02},
	},
	ASIC: {
		MMM: {0.79, 27.4}, BS: {4.75, 482},
		FFT64: {5.34, 733}, FFT1024: {4.96, 489}, FFT16384: {6.38, 689},
	},
}

// CoreI7FFTAnchors gives the synthetic-but-plausible Core i7 FFT absolute
// performance (pseudo-GFLOP/s, 5N log2 N convention) by input size, used
// to anchor the FFT measurement database. The paper publishes these only
// as curves (Figures 2-3); magnitudes here are read off those figures.
// They set plot scales only — the (mu, phi) parameters that feed the
// projections are pinned to Table 5 exactly.
var CoreI7FFTAnchors = map[int]float64{
	16:      22, // log2 N = 4
	64:      40,
	256:     50,
	1024:    55,
	4096:    50,
	16384:   44,
	65536:   41,
	262144:  39,
	1048576: 38,
}

// CoreI7FFTCorePowerW is the steady-state Core i7 core-rail power during
// FFT, approximately flat across sizes (Figure 3's left block).
const CoreI7FFTCorePowerW = 85.0

// ProjectionFractions are the parallel fractions plotted in Figures 6-10.
var ProjectionFractions = []float64{0.500, 0.900, 0.990, 0.999}

// BSProjectionFractions: Figure 8 only shows f = 0.5 and 0.9.
var BSProjectionFractions = []float64{0.500, 0.900}

// EnergyProjectionFractions: Figure 10 shows f = 0.5, 0.9, 0.99.
var EnergyProjectionFractions = []float64{0.500, 0.900, 0.990}

// FFTProjectionSize is the input size used for Section 6 FFT projections.
const FFTProjectionSize = 1024

// FFTArithmeticIntensity returns flops per byte for a size-N single-
// precision FFT per footnote 2: 5 N log2 N flops over 16 N bytes =
// 0.3125 * log2 N.
func FFTArithmeticIntensity(n int) float64 {
	return 0.3125 * log2(n)
}

// MMMArithmeticIntensity returns flops per byte for square blocked MMM
// per footnote 3: 2 N^3 / (2 * 4 N^2) = N/4 at blocking size N.
func MMMArithmeticIntensity(blockN float64) float64 {
	return blockN / 4
}

// FFT1024BytesPerFlop is the compulsory traffic used in Section 6
// (0.32 bytes/flop at N = 1024).
const FFT1024BytesPerFlop = 0.32

// MMMBytesPerFlop is the compulsory traffic at N = 128 blocking
// (0.0313 bytes/flop).
const MMMBytesPerFlop = 0.03125

func log2(n int) float64 {
	l := 0
	for v := n; v > 1; v >>= 1 {
		l++
	}
	return float64(l)
}
