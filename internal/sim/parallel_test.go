package sim

import (
	"testing"

	"github.com/calcm/heterosim/internal/paper"
)

func TestSweepAllFFTMatchesSequential(t *testing.T) {
	s := newSim(t)
	all, err := s.SweepAllFFT(4, 14, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("swept %d devices, want 5", len(all))
	}
	for _, id := range []paper.DeviceID{paper.CoreI7, paper.GTX285, paper.GTX480, paper.LX760, paper.ASIC} {
		seq, err := s.SweepFFT(id, 4, 14, false)
		if err != nil {
			t.Fatal(err)
		}
		par := all[id]
		if len(par) != len(seq) {
			t.Fatalf("%s: %d vs %d records", id, len(par), len(seq))
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Errorf("%s record %d differs between parallel and sequential", id, i)
			}
		}
	}
	// R5870 has no FFT model and must be absent.
	if _, ok := all[paper.R5870]; ok {
		t.Error("R5870 should not appear")
	}
}

func TestSweepAllFFTWithExecution(t *testing.T) {
	s := newSim(t)
	all, err := s.SweepAllFFT(4, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	for id, recs := range all {
		for _, r := range recs {
			if !r.Executed {
				t.Errorf("%s size %d not executed", id, r.Size)
			}
		}
	}
}

func TestSweepAllFFTPropagatesErrors(t *testing.T) {
	s := newSim(t)
	if _, err := s.SweepAllFFT(10, 4, false); err == nil {
		t.Error("reversed range must fail")
	}
}

func BenchmarkSweepAllFFTConcurrent(b *testing.B) {
	s, err := New()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.SweepAllFFT(4, 20, true); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSweepAllFFTVerifiesEachInputOnce pins the hoisted verification:
// executing the sweep changes nothing but Executed, and the inputs the
// sweep verifies are the distinct capped sizes 16..65536, each once, for
// all devices together and for one device alone.
func TestSweepAllFFTVerifiesEachInputOnce(t *testing.T) {
	s := newSim(t)
	executed, err := s.SweepAllFFT(4, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	modelled, err := s.SweepAllFFT(4, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != len(modelled) {
		t.Fatalf("%d executed sweeps vs %d modelled", len(executed), len(modelled))
	}
	for id, recs := range executed {
		if len(recs) != len(modelled[id]) {
			t.Fatalf("%s: %d vs %d records", id, len(recs), len(modelled[id]))
		}
		for i, r := range recs {
			if !r.Executed || modelled[id][i].Executed {
				t.Errorf("%s size %d: Executed %v/%v, want true/false", id, r.Size, r.Executed, modelled[id][i].Executed)
			}
			r.Executed = false
			if r != modelled[id][i] {
				t.Errorf("%s size %d: executed record differs beyond Executed", id, r.Size)
			}
		}
	}

	var want []Input
	for n := 1 << 16; n >= 16; n /= 2 {
		want = append(want, Input{Kernel: KernelFFT, N: n})
	}
	all, err := fftSweepJobs(s.fftDevices(), 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	one, err := fftSweepJobs([]paper.DeviceID{paper.ASIC}, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	for name, jobs := range map[string][]Job{"all devices": all, "one device": one} {
		got := distinctInputs(jobs)
		if len(got) != len(want) {
			t.Fatalf("%s: verifies %d inputs %v, want %d", name, len(got), got, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: input %d = %+v, want %+v (largest first)", name, i, got[i], want[i])
			}
		}
	}
}
