package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/calcm/heterosim/internal/loadgen"
)

func TestScenariosLists(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"scenarios"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range loadgen.BuiltinNames() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("scenarios output missing %q:\n%s", name, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"scenarios", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var scs []loadgen.Scenario
	if err := json.Unmarshal(out.Bytes(), &scs); err != nil {
		t.Fatalf("scenarios -json is not valid JSON: %v", err)
	}
	if len(scs) != len(loadgen.BuiltinNames()) {
		t.Errorf("got %d scenarios, want %d", len(scs), len(loadgen.BuiltinNames()))
	}
}

// TestRunDeterministicEndToEnd is the CLI spelling of the tentpole
// acceptance criterion: two fixed-seed runs produce byte-identical CSV,
// and the summary they emit passes its own check command.
func TestRunDeterministicEndToEnd(t *testing.T) {
	dir := t.TempDir()
	csv1 := filepath.Join(dir, "run1.csv")
	csv2 := filepath.Join(dir, "run2.csv")
	sum := filepath.Join(dir, "summary.json")

	var out bytes.Buffer
	if err := run([]string{"run", "-name", "smoke", "-deterministic", "-csv", csv1, "-summary", sum}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "-name", "smoke", "-deterministic", "-csv", csv2}, &out); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(csv1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(csv2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("fixed-seed CSVs differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", b1, b2)
	}
	if !strings.HasPrefix(string(b1), "scenario,seq,offset_us,") {
		t.Errorf("CSV missing pinned header: %q", strings.SplitN(string(b1), "\n", 2)[0])
	}

	out.Reset()
	if err := run([]string{"check", "-summary", sum}, &out); err != nil {
		t.Errorf("check rejected a clean run summary: %v", err)
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("check output %q does not confirm", out.String())
	}
}

func TestRunConfigFileAndOverrides(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "sc.json")
	body := `{
		"name": "custom", "requests": 100,
		"arrival": {"process": "closed", "concurrency": 1},
		"mix": {"optimize": 1, "models": 1},
		"hitRatio": 0.4, "keySpace": 4
	}`
	if err := os.WriteFile(cfg, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := filepath.Join(dir, "summary.json")
	var out bytes.Buffer
	// -requests cuts the run down; -seed moves it off the default.
	if err := run([]string{"run", "-config", cfg, "-deterministic",
		"-requests", "20", "-seed", "9", "-summary", sum}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(sum)
	if err != nil {
		t.Fatal(err)
	}
	var s loadgen.Summary
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if s.Scenario != "custom" || s.Requests != 20 || s.Seed != 9 {
		t.Errorf("overrides not applied: %+v", s)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","requests":1,"arrival":{"process":"warp"},"mix":{"optimize":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no scenario", []string{"run"}, "-name or -config"},
		{"unknown name", []string{"run", "-name", "nope"}, "unknown scenario"},
		{"bad config", []string{"run", "-config", bad}, "arrival process"},
		{"unknown subcommand", []string{"flood"}, "unknown subcommand"},
		{"check without input", []string{"check"}, "check needs -summary"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, &out)
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCheckCatchesDriftAndFailure(t *testing.T) {
	dir := t.TempDir()
	good := loadgen.Summary{
		Scenario: "s", Server: "baseline", Seed: 1,
		Requests: 10, OK: 10, DurationMS: 5, ThroughputRPS: 2000,
		LatencyP50US: 100, LatencyP99US: 200, LatencyMaxUS: 250, LatencySamples: 10,
	}
	write := func(name string, v any) string {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	var out bytes.Buffer
	if err := run([]string{"check", "-summary", write("good.json", good)}, &out); err != nil {
		t.Fatalf("clean summary rejected: %v", err)
	}

	// Unexpected errors fail the invariants.
	broken := good
	broken.OK = 8
	broken.TransportErrors = 2
	if err := run([]string{"check", "-summary", write("broken.json", broken)}, &out); err == nil ||
		!strings.Contains(err.Error(), "transport errors") {
		t.Errorf("transport errors not caught: %v", err)
	}

	// Schema drift (an unknown field) fails the strict parse.
	drifted := filepath.Join(dir, "drifted.json")
	if err := os.WriteFile(drifted, []byte(`{"scenario":"s","requests":1,"renamedField":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-summary", drifted}, &out); err == nil ||
		!strings.Contains(err.Error(), "schema") {
		t.Errorf("schema drift not caught: %v", err)
	}
}
