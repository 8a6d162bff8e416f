package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden-output regression tests for the fully deterministic renderers.
// Regenerate with:
//
//	go run ./cmd/heterosim table 6 > cmd/heterosim/testdata/table6.golden
//	go run ./cmd/heterosim table 1 > cmd/heterosim/testdata/table1.golden
//	go run ./cmd/heterosim figure 5 -csv > cmd/heterosim/testdata/figure5.golden
//	go run ./cmd/heterosim figure 2 -csv > cmd/heterosim/testdata/figure2.golden
//	go run ./cmd/heterosim table 4 > cmd/heterosim/testdata/table4.golden
//	go run ./cmd/heterosim table 5 > cmd/heterosim/testdata/table5.golden
//	go run ./cmd/heterosim calibrate -noise 0.05 -samples 50 -seed 7 > cmd/heterosim/testdata/calibrate_noisy.golden
//
// Figure 2 and Tables 4-5 execute and verify the real FFT/MMM/BS kernels,
// so their goldens also pin that kernel rewrites move no published number.
// The noisy calibration draws every probe reading from one seeded stream,
// so its golden pins the order in which the database build probes records.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"table6.golden", []string{"table", "6"}},
		{"table1.golden", []string{"table", "1"}},
		{"figure5.golden", []string{"figure", "5", "-csv"}},
		{"figure2.golden", []string{"figure", "2", "-csv"}},
		{"table4.golden", []string{"table", "4"}},
		{"table5.golden", []string{"table", "5"}},
		{"calibrate_noisy.golden", []string{"calibrate", "-noise", "0.05", "-samples", "50", "-seed", "7"}},
		{"project_fft_999.golden", []string{"project", "-workload", "FFT-1024", "-f", "0.999", "-csv"}},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
		got, err := capture(t, func() error { return run(c.args) })
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if got != string(want) {
			t.Errorf("%v output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
				c.args, c.golden, got, want)
		}
	}
}

func TestDevicesSubcommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"devices"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Device catalog", "GTX285", "operating points", "Mopt/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("devices output missing %q", want)
		}
	}
	// Unmeasured combinations render as dashes, not zeros.
	if !strings.Contains(out, "-") {
		t.Error("expected dashes for unmeasured combinations")
	}
}
