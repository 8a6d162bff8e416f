package paper

import (
	"math"
	"testing"
)

func TestTable2Complete(t *testing.T) {
	for _, id := range AllDevices {
		d, ok := Table2[id]
		if !ok {
			t.Errorf("Table2 missing %s", id)
			continue
		}
		if d.ID != id {
			t.Errorf("%s: ID field mismatch", id)
		}
		if d.Nm <= 0 || d.Year < 2007 || d.Year > 2010 {
			t.Errorf("%s: implausible node/year %d/%d", id, d.Nm, d.Year)
		}
	}
	// Published die areas.
	if Table2[CoreI7].DieAreaMM2 != 263 || Table2[GTX480].DieAreaMM2 != 529 {
		t.Error("published die areas corrupted")
	}
	// R5870 core area uses the 25% non-compute assumption.
	if math.Abs(Table2[R5870].CoreAreaMM2-250.5) > 1e-9 {
		t.Errorf("R5870 core area = %g, want 250.5", Table2[R5870].CoreAreaMM2)
	}
}

func TestTable4InternallyConsistent(t *testing.T) {
	// throughput / per-mm2 must equal a plausible 40nm-equivalent area:
	// smaller than the die, positive, and consistent within each device
	// across workloads (for non-ASIC devices whose whole fabric is used).
	for w, rows := range Table4 {
		for id, row := range rows {
			if row.Throughput <= 0 || row.PerMM2 <= 0 || row.PerJoule <= 0 {
				t.Errorf("%s/%s: non-positive entries", id, w)
			}
			area := row.Throughput / row.PerMM2
			if id != ASIC && (area < 100 || area > 500) {
				t.Errorf("%s/%s: implied area %g mm² implausible", id, w, area)
			}
			// Implied power must be positive and below ~300 W.
			if pw := row.Throughput / row.PerJoule; pw <= 0 || pw > 300 {
				t.Errorf("%s/%s: implied power %g W implausible", id, w, pw)
			}
		}
	}
	// The same device implies the same normalized area on MMM and BS.
	for _, id := range []DeviceID{CoreI7, GTX285, LX760} {
		mmm := Table4[MMM][id]
		bs := Table4[BS][id]
		aMMM := mmm.Throughput / mmm.PerMM2
		aBS := bs.Throughput / bs.PerMM2
		if math.Abs(aMMM/aBS-1) > 0.03 {
			t.Errorf("%s: MMM area %g vs BS area %g diverge", id, aMMM, aBS)
		}
	}
}

func TestTable5MatchesFootnoteFormulas(t *testing.T) {
	// For every device with both Table 4 and Table 5 MMM entries, the
	// footnote-1 formulas tie them together (within published rounding).
	i7 := Table4[MMM][CoreI7]
	xI7 := i7.PerMM2
	eI7 := i7.PerJoule
	r := SeqCoreBCE
	for id, params := range Table5 {
		row, ok := Table4[MMM][id]
		if !ok {
			continue
		}
		p, ok := params[MMM]
		if !ok {
			continue
		}
		mu := row.PerMM2 / (xI7 * math.Sqrt(r))
		phi := mu * eI7 / (math.Pow(r, (1-Alpha)/2) * row.PerJoule)
		if math.Abs(mu/p.Mu-1) > 0.02 {
			t.Errorf("%s MMM: formula mu %g vs published %g", id, mu, p.Mu)
		}
		if math.Abs(phi/p.Phi-1) > 0.02 {
			t.Errorf("%s MMM: formula phi %g vs published %g", id, phi, p.Phi)
		}
	}
}

func TestArithmeticIntensityFootnotes(t *testing.T) {
	// Footnote 2: FFT AI = 0.3125 log2 N.
	if got := FFTArithmeticIntensity(1024); math.Abs(got-3.125) > 1e-12 {
		t.Errorf("FFT AI(1024) = %g", got)
	}
	if got := FFTArithmeticIntensity(64); math.Abs(got-0.3125*6) > 1e-12 {
		t.Errorf("FFT AI(64) = %g", got)
	}
	// Section 6 uses 0.32 bytes/flop for FFT-1024 = 1/3.125.
	if math.Abs(1/FFTArithmeticIntensity(FFTProjectionSize)-FFT1024BytesPerFlop) > 0.001 {
		t.Error("FFT-1024 bytes/flop constant inconsistent")
	}
	// Footnote 3: MMM AI = N/4; the constant matches at N = 128.
	if math.Abs(1/MMMArithmeticIntensity(MMMBlockN)-MMMBytesPerFlop) > 1e-12 {
		t.Error("MMM bytes/flop constant inconsistent")
	}
}

func TestProjectionConstants(t *testing.T) {
	if len(ProjectionFractions) != 4 || ProjectionFractions[0] != 0.5 || ProjectionFractions[3] != 0.999 {
		t.Errorf("projection fractions = %v", ProjectionFractions)
	}
	if len(BSProjectionFractions) != 2 {
		t.Errorf("BS fractions = %v", BSProjectionFractions)
	}
	if len(EnergyProjectionFractions) != 3 {
		t.Errorf("energy fractions = %v", EnergyProjectionFractions)
	}
	if Alpha != 1.75 || SeqCoreBCE != 2 || MaxSweepR != 16 {
		t.Error("model constants corrupted")
	}
}

func TestTable3Dashes(t *testing.T) {
	// The paper's unobtainable combinations are empty strings.
	if Table3[BS][GTX480] != "" || Table3[BS][R5870] != "" {
		t.Error("GTX480/R5870 BS should be dashes")
	}
	if Table3[FFT1024][R5870] != "" {
		t.Error("R5870 FFT should be a dash")
	}
	if Table3[MMM][CoreI7] != "MKL 10.2.3" {
		t.Errorf("i7 MMM implementation = %q", Table3[MMM][CoreI7])
	}
}

func TestFFTAnchorsCoverSweep(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576} {
		if _, ok := CoreI7FFTAnchors[n]; !ok {
			t.Errorf("missing i7 FFT anchor for N=%d", n)
		}
	}
	// Anchors are in the tens-of-GFLOP/s range Figure 2 shows.
	for n, g := range CoreI7FFTAnchors {
		if g < 10 || g > 120 {
			t.Errorf("anchor N=%d = %g GFLOP/s implausible for a 2009 CPU", n, g)
		}
	}
}

func TestParseWorkload(t *testing.T) {
	for _, c := range []struct {
		in   string
		want WorkloadID
	}{
		{"MMM", MMM}, {"mmm", MMM}, {"Mmm", MMM},
		{"BS", BS}, {"bs", BS}, {"blackscholes", BS}, {"BlackScholes", BS},
		{"FFT-64", FFT64}, {"fft-64", FFT64}, {"fft64", FFT64}, {"FFT64", FFT64},
		{"FFT-1024", FFT1024}, {"fft-1024", FFT1024}, {"fft1024", FFT1024}, {"FFT", FFT1024}, {"fft", FFT1024},
		{"FFT-16384", FFT16384}, {"fft-16384", FFT16384}, {"fft16384", FFT16384},
	} {
		if got, err := ParseWorkload(c.in); err != nil || got != c.want {
			t.Errorf("ParseWorkload(%q) = (%q, %v), want %q", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "LINPACK", "fft-128", "mmm ", "b-s"} {
		if got, err := ParseWorkload(bad); err == nil {
			t.Errorf("ParseWorkload(%q) = %q, want an error", bad, got)
		}
	}
}
