package workload

import (
	"math"
	"testing"

	"github.com/calcm/heterosim/internal/paper"
)

func TestFFTCounts(t *testing.T) {
	c, err := FFTCounts(1024)
	if err != nil {
		t.Fatal(err)
	}
	if c.FLOPs != 5*1024*10 {
		t.Errorf("FLOPs = %g, want 51200", c.FLOPs)
	}
	if c.Bytes != 16*1024 {
		t.Errorf("Bytes = %g, want 16384", c.Bytes)
	}
	// Arithmetic intensity matches footnote 2: 0.3125 * log2 N.
	ai, err := c.ArithmeticIntensity()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ai-0.3125*10) > 1e-12 {
		t.Errorf("AI = %g, want 3.125", ai)
	}
	if _, err := FFTCounts(1000); err == nil {
		t.Error("non-power-of-two must fail")
	}
}

func TestFFT1024BytesPerFlopMatchesPaper(t *testing.T) {
	// The paper uses 0.32 bytes/flop for FFT-1024 in Section 6.
	bpf, err := BytesPerUnitWork(paper.FFT1024)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bpf-paper.FFT1024BytesPerFlop) > 0.001 {
		t.Errorf("FFT-1024 bytes/flop = %g, want %g", bpf, paper.FFT1024BytesPerFlop)
	}
}

func TestMMMCounts(t *testing.T) {
	c, err := MMMCounts(1024, 128)
	if err != nil {
		t.Fatal(err)
	}
	if c.FLOPs != 2*1024*1024*1024 {
		t.Errorf("FLOPs = %g", c.FLOPs)
	}
	ai, _ := c.ArithmeticIntensity()
	if math.Abs(ai-32) > 1e-9 { // N/4 at N=128
		t.Errorf("MMM AI = %g, want 32", ai)
	}
	if _, err := MMMCounts(0, 16); err == nil {
		t.Error("zero size must fail")
	}
	if _, err := MMMCounts(64, 0); err == nil {
		t.Error("zero block must fail")
	}
	if _, err := MMMCounts(64, 128); err == nil {
		t.Error("block > n must fail")
	}
}

func TestMMMBytesPerFlopMatchesPaper(t *testing.T) {
	bpf, err := BytesPerUnitWork(paper.MMM)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bpf-paper.MMMBytesPerFlop) > 1e-6 {
		t.Errorf("MMM bytes/flop = %g, want %g", bpf, paper.MMMBytesPerFlop)
	}
}

func TestBSCounts(t *testing.T) {
	c, err := BSCounts(1000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Items != 1000 {
		t.Errorf("Items = %g", c.Items)
	}
	if c.Bytes != 10000 {
		t.Errorf("Bytes = %g, want 10000 (10 B/option)", c.Bytes)
	}
	if _, err := BSCounts(0); err == nil {
		t.Error("zero options must fail")
	}
	bpo, err := BytesPerUnitWork(paper.BS)
	if err != nil || bpo != paper.BSBytesPerOption {
		t.Errorf("bytes/option = %g, %v; want 10", bpo, err)
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{FLOPs: 1, Bytes: 2, Items: 3}
	b := Counts{FLOPs: 10, Bytes: 20, Items: 30}
	got := a.Add(b)
	if got.FLOPs != 11 || got.Bytes != 22 || got.Items != 33 {
		t.Errorf("Add = %+v", got)
	}
}

func TestArithmeticIntensityErrors(t *testing.T) {
	if _, err := (Counts{FLOPs: 1}).ArithmeticIntensity(); err == nil {
		t.Error("zero bytes must error")
	}
}

func TestCheckPow2(t *testing.T) {
	for _, n := range []int{2, 4, 1024} {
		if err := CheckPow2(n); err != nil {
			t.Errorf("CheckPow2(%d): %v", n, err)
		}
	}
	for _, n := range []int{0, 1, 3, 100} {
		if err := CheckPow2(n); err == nil {
			t.Errorf("CheckPow2(%d) should fail", n)
		}
	}
}

func TestRegistryCoversTable5Workloads(t *testing.T) {
	reg := Registry()
	for _, id := range paper.AllWorkloads {
		info, ok := reg[id]
		if !ok {
			t.Errorf("registry missing %s", id)
			continue
		}
		if info.ID != id || info.Name == "" || info.ThroughputUnit == "" {
			t.Errorf("registry entry for %s incomplete: %+v", id, info)
		}
	}
}

func TestForID(t *testing.T) {
	for _, id := range paper.AllWorkloads {
		c, err := ForID(id)
		if err != nil {
			t.Errorf("ForID(%s): %v", id, err)
			continue
		}
		if c.FLOPs <= 0 || c.Bytes <= 0 {
			t.Errorf("ForID(%s) = %+v, want positive work", id, c)
		}
	}
	if _, err := ForID("nope"); err == nil {
		t.Error("unknown workload must fail")
	}
}

func TestPaperArithmeticIntensityHelpers(t *testing.T) {
	if got := paper.FFTArithmeticIntensity(1024); math.Abs(got-3.125) > 1e-12 {
		t.Errorf("paper FFT AI(1024) = %g, want 3.125", got)
	}
	if got := paper.MMMArithmeticIntensity(128); got != 32 {
		t.Errorf("paper MMM AI(128) = %g, want 32", got)
	}
}
