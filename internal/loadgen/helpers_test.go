package loadgen

import (
	"strings"
	"testing"
)

// TestBuiltinNamesMatchBuiltins: the advertised list is exactly the
// shipped scenarios, in order — the CLI's `scenarios` output and the
// builtins can never drift apart.
func TestBuiltinNamesMatchBuiltins(t *testing.T) {
	names := BuiltinNames()
	scs := builtins()
	if len(names) != len(scs) {
		t.Fatalf("BuiltinNames has %d entries, builtins %d", len(names), len(scs))
	}
	for i, sc := range scs {
		if names[i] != sc.Name {
			t.Errorf("name %d = %q, scenario says %q", i, names[i], sc.Name)
		}
	}
}

// TestFormatSummaries pins the summary table's header and one row's
// scenario/server columns — the shape the CLI prints after a run.
func TestFormatSummaries(t *testing.T) {
	var b strings.Builder
	FormatSummaries(&b, []Summary{{Scenario: "smoke", Server: "default", Requests: 10, OK: 9}})
	out := b.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + 1 row:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "scenario") || !strings.Contains(lines[0], "p99(us)") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "smoke") || !strings.Contains(lines[1], "default") {
		t.Errorf("row = %q", lines[1])
	}
}

// TestSummarizerFlushIsNoop: the summarizer satisfies Recorder; its
// Flush has nothing to write and must say so.
func TestSummarizerFlushIsNoop(t *testing.T) {
	if err := (&summarizer{}).Flush(); err != nil {
		t.Errorf("Flush = %v, want nil", err)
	}
}
