package loadgen

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against the named golden file, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/loadgen -run %s -update)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestCSVSchemaGolden pins the per-request CSV schema: the header line
// and the exact formatting of one fully-populated row. Downstream
// analysis (and the CI smoke's schema check) parse these columns;
// changing them must be a deliberate, golden-updating act.
func TestCSVSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	rec := NewCSVRecorder(&buf)
	rec.Record(Sample{
		Scenario: "golden", Seq: 7, OffsetUS: 123456,
		Endpoint: "optimize", Key: 42, DeadlineUS: 50000,
		Status: 200, Cache: "hit", Fault: "",
		Attempts: 2, LatencyUS: 1875, Err: "",
	})
	rec.Record(Sample{
		Scenario: "golden", Seq: 8, OffsetUS: 130000,
		Endpoint: "sensitivity", Key: 99, DeadlineUS: 0,
		Status: 503, Cache: "", Fault: "error",
		Attempts: 3, LatencyUS: 20104, Err: "retry",
	})
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "csv_schema.golden", buf.Bytes())
}

// keyTree flattens a JSON document into its sorted set of key paths.
// Array elements collapse into "[]" — the golden pins the shape, not the
// cardinality.
func keyTree(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := prefix + "." + k
			out[p] = true
			keyTree(child, p, out)
		}
	case []any:
		for _, child := range x {
			keyTree(child, prefix+"[]", out)
		}
	}
}

// TestBench8KeyTreeGolden pins the BENCH_8.json key tree: the scenario
// matrix document's shape, including every per-cell summary field. A
// field renamed or dropped here silently breaks whatever trends those
// numbers, so the shape is held by a golden.
func TestBench8KeyTreeGolden(t *testing.T) {
	m := DefaultMatrix()
	// One synthetic summary exercising every optional field, so the
	// tree is complete without running the (nondeterministic, slow)
	// measurement matrix.
	sum := Summary{
		Scenario: m.Scenarios[0].Name, Server: m.Servers[0].Name, Seed: 1,
		Requests: 10, OK: 6, Shed: 1, DeadlineMiss: 1, InjectedFaults: 2,
		DurationMS: 12.5, ThroughputRPS: 800,
		LatencyP50US: 900, LatencyP99US: 4000, LatencyMaxUS: 5000, LatencySamples: 6,
		ShedRate: 0.1, DeadlineMissRate: 0.1,
		Cache: CacheRatios{Hits: 3, Misses: 3, Coalesced: 1, StaleServed: 1, HitRatio: 0.5, CoalesceRatio: 0.14},
	}
	doc := NewBenchDoc(m, []Summary{sum})
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	keyTree(v, "", paths)
	var sorted []string
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	var b strings.Builder
	fmt.Fprintln(&b, "# BENCH_8.json key tree (shape only; [] collapses array elements)")
	for _, p := range sorted {
		fmt.Fprintln(&b, p)
	}
	checkGolden(t, "bench8_keys.golden", []byte(b.String()))
}
