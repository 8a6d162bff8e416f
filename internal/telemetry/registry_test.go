package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryFamilyAndSnapshotOrder(t *testing.T) {
	r := NewRegistry()
	req := r.Family("request_duration_seconds", "endpoint")
	stage := r.Family("stage_duration_seconds", "stage")
	if again := r.Family("request_duration_seconds", "other"); again != req {
		t.Fatal("re-registration must return the original family")
	}
	stage.Observe("gate", time.Millisecond)
	stage.Observe("decode", time.Millisecond)
	stage.Observe("evaluate", time.Millisecond)
	req.Observe("optimize", time.Millisecond)

	snaps := r.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("got %d families, want 2", len(snaps))
	}
	// Families in creation order, series sorted by label.
	if snaps[0].Name != "request_duration_seconds" || snaps[1].Name != "stage_duration_seconds" {
		t.Errorf("family order: %s, %s", snaps[0].Name, snaps[1].Name)
	}
	var labels []string
	for _, s := range snaps[1].Series {
		labels = append(labels, s.Label)
	}
	if strings.Join(labels, ",") != "decode,evaluate,gate" {
		t.Errorf("series labels = %v, want sorted", labels)
	}
	if snaps[1].LabelKey != "stage" {
		t.Errorf("label key = %q", snaps[1].LabelKey)
	}
}

func TestRegistryConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := r.Family("stage_duration_seconds", "stage")
			for i := 0; i < 500; i++ {
				f.Observe([]string{"decode", "cache", "gate"}[i%3], time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	snap := r.Family("stage_duration_seconds", "stage").Snapshot()
	var total int64
	for _, s := range snap.Series {
		total += s.Hist.Count
	}
	if total != 8*500 {
		t.Fatalf("total observations = %d, want 4000", total)
	}
}

func TestSpanThroughContext(t *testing.T) {
	r := NewRegistry()
	stages := r.Family("stage_duration_seconds", "stage")
	ctx := WithRequest(context.Background(), &Request{Stages: stages})

	sp := StartSpan(ctx, "decode")
	time.Sleep(time.Millisecond)
	sp.End()

	snap := stages.Snapshot()
	if len(snap.Series) != 1 || snap.Series[0].Label != "decode" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if h := snap.Series[0].Hist; h.Count != 1 || h.Sum < time.Millisecond {
		t.Errorf("span recorded %d obs, sum %v", h.Count, h.Sum)
	}

	// Spans without a family (plain context, nil context) are no-ops.
	StartSpan(context.Background(), "x").End()
	var nilCtx context.Context
	StartSpan(nilCtx, "x").End()
	Span{}.End()
	if StagesFrom(context.Background()) != nil || StagesFrom(nilCtx) != nil {
		t.Error("StagesFrom on bare context must be nil")
	}
	// A request without a family leaves spans no-ops.
	if StagesFrom(WithRequest(context.Background(), &Request{ID: "a"})) != nil {
		t.Error("a Request without Stages must give a nil family")
	}
}

// TestNewRequestIDAllocs pins minting an ID at the one allocation of
// its string: every client call and every unlabelled request mints one.
func TestNewRequestIDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if got := testing.AllocsPerRun(100, func() { NewRequestID() }); got > 1 {
		t.Errorf("NewRequestID allocates %.0f times, want 1", got)
	}
}

func TestRequestIDHelpers(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b || len(a) != 16 || len(b) != 16 {
		t.Errorf("minted IDs %q, %q should be distinct 16-char strings", a, b)
	}
	ctx := WithRequestID(context.Background(), "abc-123")
	if got := RequestID(ctx); got != "abc-123" {
		t.Errorf("RequestID = %q", got)
	}
	if RequestID(context.Background()) != "" || RequestID(nil) != "" {
		t.Error("missing ID must be empty")
	}
	if WithRequestID(context.Background(), "") != context.Background() {
		t.Error("empty ID must not allocate a context")
	}

	valid := []string{"abc", "ABC-123_x.y", strings.Repeat("a", 64)}
	for _, id := range valid {
		if SanitizeRequestID(id) != id {
			t.Errorf("SanitizeRequestID(%q) rejected a valid ID", id)
		}
	}
	invalid := []string{"", strings.Repeat("a", 65), "has space", "tab\there", `quote"id`, `back\slash`, "ctrl\x01"}
	for _, id := range invalid {
		if got := SanitizeRequestID(id); got != "" {
			t.Errorf("SanitizeRequestID(%q) = %q, want rejection", id, got)
		}
	}
}
