package sim

import (
	"math"
	"strings"
	"testing"

	"github.com/calcm/heterosim/internal/paper"
)

func newSim(t *testing.T) *Simulator {
	t.Helper()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runExecuted runs one job with its kernel executed and verified.
func runExecuted(s *Simulator, j Job) (Record, error) {
	recs, err := s.Run([]Job{j}, true)
	if err != nil {
		return Record{}, err
	}
	return recs[0], nil
}

func TestRunFFTProducesConsistentRecord(t *testing.T) {
	s := newSim(t)
	rec, err := runExecuted(s, Job{Device: paper.GTX285, Kernel: KernelFFT, Size: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Executed {
		t.Error("kernel should have executed")
	}
	if rec.Workload != paper.FFT1024 {
		t.Errorf("workload = %s", rec.Workload)
	}
	// Throughput x seconds == GFLOPs of work.
	gflops := rec.Counts.FLOPs / 1e9
	if math.Abs(rec.Throughput*rec.Seconds-gflops) > 1e-9*gflops {
		t.Errorf("time/throughput inconsistent: %g * %g != %g",
			rec.Throughput, rec.Seconds, gflops)
	}
	// Compulsory bandwidth = throughput x bytes/flop.
	wantBW := rec.Throughput * (rec.Counts.Bytes / rec.Counts.FLOPs)
	if math.Abs(rec.CompulsoryGBs-wantBW) > 1e-9*wantBW {
		t.Errorf("compulsory = %g, want %g", rec.CompulsoryGBs, wantBW)
	}
	if rec.EnergyJ() <= 0 {
		t.Error("energy must be positive")
	}
}

func TestRunFFTUnknownDevice(t *testing.T) {
	s := newSim(t)
	if _, err := s.RunFFT(paper.R5870, 1024); err == nil {
		t.Error("R5870 has no FFT model; must fail")
	}
	if _, err := s.RunFFT(paper.GTX285, 1000); err == nil {
		t.Error("non-power-of-two FFT must fail")
	}
}

func TestBandwidthKnee(t *testing.T) {
	s := newSim(t)
	// Below the GTX285 knee (2^12): measured == compulsory.
	small, err := s.RunFFT(paper.GTX285, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(small.MeasuredGBs-small.CompulsoryGBs) > 1e-12 {
		t.Errorf("below knee, measured %g != compulsory %g",
			small.MeasuredGBs, small.CompulsoryGBs)
	}
	// Above the knee: measured exceeds compulsory (out-of-core traffic)...
	big, err := s.RunFFT(paper.GTX285, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if big.MeasuredGBs <= big.CompulsoryGBs {
		t.Errorf("above knee, measured %g should exceed compulsory %g",
			big.MeasuredGBs, big.CompulsoryGBs)
	}
	// ...but stays below the board peak (compute-bound, the Section 5
	// verification step).
	if big.MeasuredGBs >= 159 {
		t.Errorf("measured %g must stay below the 159 GB/s peak", big.MeasuredGBs)
	}
}

func TestRunMMMVerifiedAndCalibrated(t *testing.T) {
	s := newSim(t)
	rec, err := runExecuted(s, Job{Device: paper.ASIC, Kernel: KernelMMM, Size: 1024, Block: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Executed {
		t.Error("MMM kernel should have executed")
	}
	// Table 4: ASIC MMM = 694 GFLOP/s.
	if math.Abs(rec.Throughput-694) > 1e-9 {
		t.Errorf("ASIC MMM throughput = %g, want 694", rec.Throughput)
	}
	// Energy efficiency matches Table 4: 50.73 GFLOP/J.
	eff := (rec.Counts.FLOPs / 1e9) / rec.EnergyJ()
	if math.Abs(eff/50.73-1) > 1e-6 {
		t.Errorf("ASIC MMM GFLOP/J = %g, want 50.73", eff)
	}
}

func TestRunBSVerifiedAndCalibrated(t *testing.T) {
	s := newSim(t)
	rec, err := runExecuted(s, Job{Device: paper.GTX285, Kernel: KernelBS, Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Executed {
		t.Error("BS kernel should have executed")
	}
	// Table 4: GTX285 BS = 10756 Mopt/s.
	if math.Abs(rec.Throughput-10756) > 1e-9 {
		t.Errorf("GTX285 BS throughput = %g, want 10756", rec.Throughput)
	}
	// 10 bytes per option: compulsory GB/s = Mopt/s * 10 / 1000.
	want := 10756.0 * 10 / 1000
	if math.Abs(rec.CompulsoryGBs-want) > 1e-6 {
		t.Errorf("BS compulsory = %g, want %g", rec.CompulsoryGBs, want)
	}
}

func TestMissingModels(t *testing.T) {
	s := newSim(t)
	// GTX480 BS and R5870 BS/FFT were not obtained in the paper.
	if _, err := s.RunBS(paper.GTX480, 1000); err == nil {
		t.Error("GTX480 BS must fail")
	}
	if _, err := s.RunBS(paper.R5870, 1000); err == nil {
		t.Error("R5870 BS must fail")
	}
	if s.HasModel(paper.R5870, paper.MMM) != true {
		t.Error("R5870 MMM should exist")
	}
	if s.HasModel(paper.GTX480, paper.BS) {
		t.Error("GTX480 BS should not exist")
	}
}

func TestSweepFFT(t *testing.T) {
	s := newSim(t)
	recs, err := s.SweepFFT(paper.CoreI7, 4, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 17 {
		t.Fatalf("sweep length = %d, want 17", len(recs))
	}
	for i, r := range recs {
		if r.Size != 1<<uint(4+i) {
			t.Errorf("sweep[%d] size = %d", i, r.Size)
		}
		if r.Throughput <= 0 || r.Seconds <= 0 {
			t.Errorf("sweep[%d] non-positive values: %+v", i, r)
		}
	}
	if _, err := s.SweepFFT(paper.CoreI7, 10, 4, false); err == nil {
		t.Error("reversed range must fail")
	}
}

func TestSweepWithExecution(t *testing.T) {
	s := newSim(t)
	recs, err := s.SweepFFT(paper.ASIC, 4, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if !r.Executed {
			t.Errorf("size %d not executed", r.Size)
		}
	}
}

func TestWorkloadIDForFFT(t *testing.T) {
	if got := workloadIDForFFT(64); got != paper.FFT64 {
		t.Errorf("64 -> %s", got)
	}
	if got := workloadIDForFFT(2048); !strings.HasPrefix(string(got), "FFT-") {
		t.Errorf("2048 -> %s", got)
	}
}

func TestCompulsoryOnly(t *testing.T) {
	s := newSim(t)
	rec, _ := s.RunFFT(paper.GTX285, 4096)
	if CompulsoryOnly(rec) != rec.CompulsoryGBs {
		t.Error("CompulsoryOnly mismatch")
	}
}

// The Section 5 compute-bound check: at every size the GTX285's measured
// bandwidth stays below the board peak, so FFT performance is
// compute-bound, satisfying the model's linear-scaling assumption.
func TestGTX285FFTComputeBoundEverywhere(t *testing.T) {
	s := newSim(t)
	recs, err := s.SweepFFT(paper.GTX285, 4, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.MeasuredGBs >= 159 {
			t.Errorf("N=2^%d: measured %g GB/s >= peak", int(math.Log2(float64(r.Size))), r.MeasuredGBs)
		}
	}
}

// simSink keeps TestSimNewAllocs' simulators on the heap, as a caller's.
var simSink *Simulator

// TestSimNewAllocs: every simulator after the first shares the
// calibrated model set, so New allocates the Simulator alone.
func TestSimNewAllocs(t *testing.T) {
	newSim(t)
	if got := testing.AllocsPerRun(100, func() { simSink, _ = New() }); got != 1 {
		t.Errorf("New allocates %.0f times, want 1 (the Simulator)", got)
	}
}

func BenchmarkRunFFT1024(b *testing.B) {
	s, err := New()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunFFT(paper.GTX480, 1024); err != nil {
			b.Fatal(err)
		}
	}
}
