package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	return out, runErr
}

// runContains runs the CLI with args, fails t if it errors, and reports
// each of wants missing from what it printed. It returns the output.
func runContains(t *testing.T, args []string, wants ...string) string {
	t.Helper()
	out, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("%v output missing %q:\n%s", args, want, out)
		}
	}
	return out
}

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args must fail")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown subcommand must fail")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help should succeed: %v", err)
	}
}

func TestTableSubcommands(t *testing.T) {
	for _, n := range []string{"1", "2", "3", "6"} {
		out, err := capture(t, func() error { return run([]string{"table", n}) })
		if err != nil {
			t.Fatalf("table %s: %v", n, err)
		}
		if !strings.Contains(out, "Table "+n) {
			t.Errorf("table %s output missing title:\n%s", n, out)
		}
	}
	if err := run([]string{"table"}); err == nil {
		t.Error("missing table number must fail")
	}
	if err := run([]string{"table", "9"}); err == nil {
		t.Error("table 9 must fail")
	}
	if err := run([]string{"table", "x"}); err == nil {
		t.Error("non-numeric table must fail")
	}
}

func TestTable5MatchesPublishedInOutput(t *testing.T) {
	// Spot-check a few published values appear.
	runContains(t, []string{"table", "5"}, "ASIC", "FFT-1024", "4.96", "489")
}

func TestFigureSubcommands(t *testing.T) {
	cases := map[string]string{
		"5": "ITRS",
		"6": "FFT-1024",
		"8": "Black-Scholes",
		"9": "1 TB/s",
	}
	for n, want := range cases {
		out, err := capture(t, func() error { return run([]string{"figure", n}) })
		if err != nil {
			t.Fatalf("figure %s: %v", n, err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("figure %s missing %q", n, want)
		}
	}
	if err := run([]string{"figure"}); err == nil {
		t.Error("missing figure number must fail")
	}
	if err := run([]string{"figure", "1"}); err == nil {
		t.Error("figure 1 is a diagram; must fail")
	}
	if err := run([]string{"figure", "z"}); err == nil {
		t.Error("non-numeric figure must fail")
	}
}

func TestFigureCSVOutput(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"figure", "5", "-csv"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "series,") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "package pins") {
		t.Errorf("CSV rows missing:\n%s", out)
	}
}

func TestProjectSubcommand(t *testing.T) {
	runContains(t, []string{"project", "-workload", "MMM", "-f", "0.99"},
		"(6) ASIC", "(5) R5870", "40nm", "11nm")
	if err := run([]string{"project", "-workload", "nope"}); err == nil {
		t.Error("unknown workload must fail")
	}
	if err := run([]string{"project", "-scenario", "99"}); err == nil {
		t.Error("unknown scenario must fail")
	}
}

func TestProjectOverrides(t *testing.T) {
	runContains(t, []string{"project", "-workload", "FFT-1024", "-f", "0.9",
		"-power", "200", "-bandwidth", "90", "-areascale", "0.5"}, "FFT-1024")
}

func TestProjectDefaultRun(t *testing.T) {
	runContains(t, []string{"project"}, "FFT-1024", "40nm", "11nm", "(6) ASIC")
}

func TestProjectAllWorkloads(t *testing.T) {
	for _, w := range []string{"MMM", "BS", "FFT-64", "FFT-1024", "FFT-16384"} {
		runContains(t, []string{"project", "-workload", w, "-f", "0.9"}, "Projection: "+w)
	}
	if err := run([]string{"project", "-workload", "SPECint"}); err == nil {
		t.Error("unknown workload must fail")
	}
}

func TestProjectCSV(t *testing.T) {
	if out := runContains(t, []string{"project", "-csv", "-workload", "MMM"}); !strings.HasPrefix(out, "design,40nm") {
		t.Errorf("CSV header wrong:\n%s", out)
	}
}

func TestProjectBudgetFlags(t *testing.T) {
	// 10 W makes 40nm infeasible; 32nm is the first feasible node.
	runContains(t, []string{"project", "-power", "10", "-bandwidth", "90"}, "infeasible  1.15")
}

func TestScenarioSubcommand(t *testing.T) {
	runContains(t, []string{"scenario", "2", "-workload", "FFT-1024", "-f", "0.9"},
		"Scenario 2", "1 TB/s", "Baseline:")
	if err := run([]string{"scenario"}); err == nil {
		t.Error("missing scenario number must fail")
	}
	if err := run([]string{"scenario", "7"}); err == nil {
		t.Error("scenario 7 must fail")
	}
}

func TestEnergySubcommand(t *testing.T) {
	runContains(t, []string{"energy", "-workload", "MMM", "-f", "0.9"}, "Energy projection")
	if err := run([]string{"energy", "-workload", "bogus"}); err == nil {
		t.Error("bad workload must fail")
	}
}

func TestEnergyNormalized(t *testing.T) {
	runContains(t, []string{"energy", "-workload", "MMM", "-f", "0.9"}, "task energy normalized")
}

func TestValidateSubcommand(t *testing.T) {
	out := runContains(t, []string{"validate"}, "ITRS-2009", "back-cast", "all conclusions hold")
	if strings.Contains(out, "WARNING") {
		t.Errorf("validation should pass on both roadmaps:\n%s", out)
	}
}

func TestCalibrateSubcommand(t *testing.T) {
	runContains(t, []string{"calibrate"}, "Calibration", "mu err %")
	// Noisy calibration with few samples still runs.
	runContains(t, []string{"calibrate", "-noise", "0.05", "-samples", "50", "-seed", "7"})
}

func TestCalibrateIdeal(t *testing.T) {
	runContains(t, []string{"calibrate"}, "derived vs published Table 5", "ASIC", "FFT-1024")
}

func TestCalibrateNoisy(t *testing.T) {
	runContains(t, []string{"calibrate", "-noise", "0.03", "-samples", "200", "-seed", "42"})
}

func TestCalibrateBadFlags(t *testing.T) {
	if err := run([]string{"calibrate", "-noise", "-1"}); err == nil {
		t.Error("negative noise must fail")
	}
	if err := run([]string{"calibrate", "-samples", "0"}); err == nil {
		t.Error("zero samples must fail")
	}
}

func TestAblateSubcommand(t *testing.T) {
	runContains(t, []string{"ablate", "-f", "0.999", "-node", "4"}, "bandwidth bound removed",
		"power bound removed", "sequential core pinned", "Offload assumption", "Scheduling assumption")
	if err := run([]string{"ablate", "-node", "99"}); err == nil {
		t.Error("bad node index must fail")
	}
}

func TestDeriveSubcommand(t *testing.T) {
	// Dump a template, then re-derive from it.
	dump := runContains(t, []string{"derive", "-dump"})
	dir := t.TempDir()
	path := dir + "/db.json"
	if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	runContains(t, []string{"derive", "-measurements", path}, "ASIC", "489")
	if err := run([]string{"derive"}); err == nil {
		t.Error("derive without input must fail")
	}
	if err := run([]string{"derive", "-measurements", dir + "/missing.json"}); err == nil {
		t.Error("missing file must fail")
	}
}

func TestSensitivitySubcommand(t *testing.T) {
	runContains(t, []string{"sensitivity", "-workload", "FFT-1024", "-f", "0.999", "-node", "0", "-samples", "50"},
		"Elasticities", "Monte Carlo", "(6) ASIC", "bandwidth")
	if err := run([]string{"sensitivity", "-node", "99"}); err == nil {
		t.Error("bad node must fail")
	}
}

func TestFrontierSubcommand(t *testing.T) {
	runContains(t, []string{"frontier", "-steps", "3", "-node", "1"},
		"speedup surface", "Best grid point", "phi\\mu")
	if err := run([]string{"frontier", "-steps", "0"}); err == nil {
		t.Error("zero steps must fail")
	}
	if err := run([]string{"frontier", "-node", "-1"}); err == nil {
		t.Error("bad node must fail")
	}
}

// TestParseWorkload: the CLI takes every workload spelling the HTTP API
// takes (both go through paper.ParseWorkload).
func TestParseWorkload(t *testing.T) {
	for _, s := range []string{"MMM", "bs", "FFT", "fft-64", "FFT-16384", "fft1024", "Mmm"} {
		if _, err := capture(t, func() error { return run([]string{"project", "-workload", s}) }); err != nil {
			t.Errorf("project -workload %s: %v", s, err)
		}
	}
	if err := run([]string{"project", "-workload", "LINPACK"}); err == nil {
		t.Error("unknown workload must fail")
	}
}

func TestWorkersFlagNormalizes(t *testing.T) {
	cases := []struct {
		arg  string
		want int
	}{
		{"4", 4},
		{"1", 1},
		{"0", 0},
		{"-3", 0}, // any "auto" spelling canonicalizes to 0 at parse time
	}
	for _, c := range cases {
		fs := newFlagSet("test")
		fs.SetOutput(io.Discard)
		workers := workersFlag(fs)
		if err := fs.Parse([]string{"-workers", c.arg}); err != nil {
			t.Errorf("-workers %s: %v", c.arg, err)
			continue
		}
		if *workers != c.want {
			t.Errorf("-workers %s = %d, want %d", c.arg, *workers, c.want)
		}
	}

	fs := newFlagSet("test")
	fs.SetOutput(io.Discard)
	workersFlag(fs)
	if err := fs.Parse([]string{"-workers", "many"}); err == nil {
		t.Error("non-integer -workers must fail to parse")
	}
}

func TestVersionSubcommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"version"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "github.com/calcm/heterosim") {
		t.Errorf("version output missing module path: %q", out)
	}
}
