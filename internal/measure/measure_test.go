package measure

import (
	"math"
	"testing"

	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/sim"
	"github.com/calcm/heterosim/internal/ucore"
)

func idealRig(t *testing.T) *Rig {
	t.Helper()
	r, err := IdealRig()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestProbeValidation(t *testing.T) {
	if _, err := NewProbe(-0.1, 1); err == nil {
		t.Error("negative noise must fail")
	}
	p, err := NewProbe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Sample(-5, 3); err == nil {
		t.Error("negative power must fail")
	}
	if _, err := p.Sample(5, 0); err == nil {
		t.Error("zero samples must fail")
	}
}

func TestIdealProbeIsExact(t *testing.T) {
	p, _ := NewProbe(0, 42)
	xs, err := p.Sample(73.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if x != 73.5 {
			t.Errorf("ideal probe read %g", x)
		}
	}
}

func TestNoisyProbeConverges(t *testing.T) {
	p, _ := NewProbe(0.05, 7)
	mean, err := p.Mean(100, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-100) > 0.5 {
		t.Errorf("noisy mean = %g, want ~100 +- 0.5", mean)
	}
}

func TestNewRigValidation(t *testing.T) {
	s, err := sim.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRig(nil, 0, 1, 1); err == nil {
		t.Error("nil simulator must fail")
	}
	if _, err := NewRig(s, 0, 1, 0); err == nil {
		t.Error("zero samples must fail")
	}
	if _, err := NewRig(s, -1, 1, 1); err == nil {
		t.Error("negative noise must fail")
	}
}

func TestSubtractionRecoversComputePower(t *testing.T) {
	r := idealRig(t)
	rec, err := r.Sim.RunFFT(paper.GTX285, 1024)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.MeasureComputePower(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Power.Compute()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("measured compute = %g, model = %g", got, want)
	}
	// The subtraction matters: total wall power is well above compute for
	// a GPU (uncore static + dynamic + unknown).
	if rec.Power.Total() < want+20 {
		t.Errorf("GPU uncore should be substantial: total %g vs compute %g",
			rec.Power.Total(), want)
	}
}

func TestNoisySubtractionConverges(t *testing.T) {
	s, err := sim.New()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRig(s, 0.03, 99, 10000)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.RunFFT(paper.GTX480, 1024)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.MeasureComputePower(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Power.Compute()
	if math.Abs(got/want-1) > 0.02 {
		t.Errorf("noisy compute = %g, want within 2%% of %g", got, want)
	}
}

func TestMeasurementFields(t *testing.T) {
	r := idealRig(t)
	rec, err := r.Sim.RunMMM(paper.LX760, 1024, 128)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Measurement(rec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Device != paper.LX760 || m.Workload != paper.MMM {
		t.Errorf("identity mismatch: %+v", m)
	}
	if m.AreaMM2 != 385 {
		t.Errorf("FPGA area = %g, want 385 (effective fabric)", m.AreaMM2)
	}
	if m.Nm != 40 {
		t.Errorf("nm = %d", m.Nm)
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestVerifyComputeBound(t *testing.T) {
	r := idealRig(t)
	rec, err := r.Sim.RunFFT(paper.GTX285, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyComputeBound(rec, 0.95); err != nil {
		t.Errorf("FFT-1024 on GTX285 is compute-bound: %v", err)
	}
	// Force a bandwidth-bound record.
	bound := rec
	bound.MeasuredGBs = 158
	if err := VerifyComputeBound(bound, 0.95); err == nil {
		t.Error("158 of 159 GB/s must be flagged bandwidth-bound")
	}
	if err := VerifyComputeBound(rec, 0); err == nil {
		t.Error("bad headroom must fail")
	}
	// Devices without a published peak pass trivially.
	asic, err := r.Sim.RunFFT(paper.ASIC, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyComputeBound(asic, 0.95); err != nil {
		t.Errorf("ASIC has no peak; should pass: %v", err)
	}
}

// Failure injection: a record whose decomposition leaves no positive
// compute power after the uncore subtraction (a broken device model or a
// mis-attributed rail) must be rejected, not silently calibrated.
func TestSubtractionRejectsNegativeCompute(t *testing.T) {
	r := idealRig(t)
	rec, err := r.Sim.RunFFT(paper.GTX285, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the decomposition: the compute components cancel out, so
	// wall - idle - memory-bench <= 0.
	rec.Power.CoreDynamic = -rec.Power.CoreLeakage
	if _, err := r.MeasureComputePower(rec); err == nil {
		t.Error("non-positive compute power must be rejected")
	}
	if _, err := r.Measurement(rec); err == nil {
		t.Error("Measurement must propagate the rejection")
	}
}

func TestBuildDatabaseCoverage(t *testing.T) {
	r := idealRig(t)
	db, err := r.BuildDatabase()
	if err != nil {
		t.Fatal(err)
	}
	// 6 MMM + 4 BS + 5 devices x 3 FFT sizes = 25 measurements.
	if len(db.Measurements) != 25 {
		t.Fatalf("database has %d measurements, want 25", len(db.Measurements))
	}
	if _, ok := db.Lookup(paper.ASIC, paper.FFT16384); !ok {
		t.Error("missing ASIC FFT-16384")
	}
	if _, ok := db.Lookup(paper.R5870, paper.BS); ok {
		t.Error("R5870 BS should be absent")
	}
}

// End-to-end calibration: simulate -> probe -> subtract -> derive, and the
// result is Table 5 within rounding of the published values.
func TestEndToEndTable5Reproduction(t *testing.T) {
	r := idealRig(t)
	db, err := r.BuildDatabase()
	if err != nil {
		t.Fatal(err)
	}
	derived, err := db.DeriveTable5()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for dev, wants := range paper.Table5 {
		for w, want := range wants {
			got, ok := derived[dev][w]
			if !ok {
				t.Errorf("calibration missing %s/%s", dev, w)
				continue
			}
			tol := 0.02 // MMM/BS come through Table 4 rounding
			if w == paper.FFT64 || w == paper.FFT1024 || w == paper.FFT16384 {
				tol = 1e-6 // FFT models are constructed by exact inversion
			}
			if math.Abs(got.Mu/want.Mu-1) > tol {
				t.Errorf("%s/%s mu = %.4f, published %.4f", dev, w, got.Mu, want.Mu)
			}
			if math.Abs(got.Phi/want.Phi-1) > tol {
				t.Errorf("%s/%s phi = %.4f, published %.4f", dev, w, got.Phi, want.Phi)
			}
			checked++
		}
	}
	if checked < 15 {
		t.Errorf("only %d Table 5 cells checked", checked)
	}
}

// The same pipeline with a realistically noisy probe still lands within a
// few percent — the methodology is robust, not knife-edge.
func TestNoisyEndToEndStillClose(t *testing.T) {
	s, err := sim.New()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRig(s, 0.02, 1234, 5000)
	if err != nil {
		t.Fatal(err)
	}
	db, err := r.BuildDatabase()
	if err != nil {
		t.Fatal(err)
	}
	derived, err := db.DeriveTable5()
	if err != nil {
		t.Fatal(err)
	}
	var params ucore.Params
	params, ok := derived[paper.ASIC][paper.FFT1024], true
	if !ok {
		t.Fatal("missing ASIC FFT-1024")
	}
	want := paper.Table5[paper.ASIC][paper.FFT1024]
	if math.Abs(params.Mu/want.Mu-1) > 0.05 {
		t.Errorf("noisy mu = %g, want within 5%% of %g", params.Mu, want.Mu)
	}
	if math.Abs(params.Phi/want.Phi-1) > 0.05 {
		t.Errorf("noisy phi = %g, want within 5%% of %g", params.Phi, want.Phi)
	}
}

// TestBuildDatabaseKernelInputs pins what BuildDatabase verifies: its 25
// runs name exactly five distinct kernel inputs — one 192³ MMM product,
// one 2^15-option BS portfolio and the three FFT anchors.
func TestBuildDatabaseKernelInputs(t *testing.T) {
	r := idealRig(t)
	jobs := databaseJobs(r.Sim)
	if len(jobs) != 25 {
		t.Fatalf("database names %d runs, want 25", len(jobs))
	}
	got := make(map[sim.Input]int)
	for _, j := range jobs {
		got[j.Input()]++
	}
	want := map[sim.Input]int{
		{Kernel: sim.KernelMMM, N: 192, Block: 128}: 6,
		{Kernel: sim.KernelBS, N: 1 << 15}:          4,
		{Kernel: sim.KernelFFT, N: 64}:              5,
		{Kernel: sim.KernelFFT, N: 1024}:            5,
		{Kernel: sim.KernelFFT, N: 16384}:           5,
	}
	if len(got) != len(want) {
		t.Errorf("database verifies %d inputs %v, want %d", len(got), got, len(want))
	}
	for in, runs := range want {
		if got[in] != runs {
			t.Errorf("input %+v named by %d runs, want %d", in, got[in], runs)
		}
	}
}
