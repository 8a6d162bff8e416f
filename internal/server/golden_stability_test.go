package server

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// prerefactorFixture is one request captured through the pre-registry
// serving stack: the raw body, the canonical cache key it produced, and
// the exact response bytes. testdata/prerefactor.json was generated
// before the pipeline was re-expressed on the operation registry and is
// deliberately not regenerable — it pins the refactor to byte identity.
type prerefactorFixture struct {
	Op       string `json:"op"`
	Body     string `json:"body"`
	Key      string `json:"key"`
	Response string `json:"response"`
}

func loadPrerefactor(t *testing.T) []prerefactorFixture {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "prerefactor.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fixtures []prerefactorFixture
	if err := json.Unmarshal(raw, &fixtures); err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no fixtures")
	}
	return fixtures
}

// opByName resolves a model op for a fixture.
func opByName(t *testing.T, name string) op {
	t.Helper()
	i := opRoute(name)
	if i < 0 {
		t.Fatalf("fixture references unregistered op %q", name)
	}
	return routes[i].op
}

// TestGoldenStabilityOps replays the pre-refactor fixtures directly
// through the model ops: the canonical cache key and the response
// bytes must both match what the hand-rolled handlers produced —
// at the default worker count and at an explicit one, since workers
// must never reach the key or the response bytes.
func TestGoldenStabilityOps(t *testing.T) {
	for _, fx := range loadPrerefactor(t) {
		prepare := opByName(t, fx.Op)
		for _, workers := range []int{0, 3} {
			key, _, eval, err := prepare([]byte(fx.Body), workers)
			if err != nil {
				t.Fatalf("%s: Prepare(%s) failed: %v", fx.Op, fx.Body, err)
			}
			if key != fx.Key {
				t.Errorf("%s: cache key drifted (workers=%d):\n--- got ---\n%q\n--- want ---\n%q",
					fx.Op, workers, key, fx.Key)
			}
			resp, err := eval(context.Background())
			if err != nil {
				t.Fatalf("%s: eval failed: %v", fx.Op, err)
			}
			if string(resp) != fx.Response {
				t.Errorf("%s: response drifted (workers=%d):\n--- got ---\n%s\n--- want ---\n%s",
					fx.Op, workers, resp, fx.Response)
			}
		}
	}
}

// TestGoldenStabilityHTTP replays the same fixtures end to end through
// the refactored HTTP pipeline.
func TestGoldenStabilityHTTP(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, fx := range loadPrerefactor(t) {
		rec := do(t, s, http.MethodPost, "/v1/"+fx.Op, fx.Body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d (body %s)", fx.Op, rec.Code, rec.Body)
		}
		if rec.Body.String() != fx.Response {
			t.Errorf("%s: HTTP response drifted:\n--- got ---\n%s\n--- want ---\n%s",
				fx.Op, rec.Body.String(), fx.Response)
		}
	}
}
