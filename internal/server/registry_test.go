package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// sampleBodies holds one known-good request per registered op. The
// invariant tests below range over the route table's model ops, so a
// new op without a sample here fails TestRegistrySampleCompleteness — the
// price of admission to the serving surface is one line in this map.
var sampleBodies = map[string]string{
	"optimize":    `{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}`,
	"sweep":       `{"workload":"MMM","design":{"kind":"sym"},"f":{"values":[0.9]}}`,
	"project":     `{"workload":"MMM","f":0.9}`,
	"scenario":    `{"scenario":1,"workload":"MMM","f":0.9}`,
	"sensitivity": `{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"samples":50}`,
	"ablation":    `{"workload":"MMM","f":0.9,"node":"40nm"}`,
	"compare":     `{"workload":"MMM","f":0.9,"pairs":[{"scenario":1},{"scenario":2}]}`,
}

// opRoutes returns the routes that serve a buffered model op, in table
// order.
func opRoutes() []*route {
	var out []*route
	for i := range routes {
		if routes[i].op != nil {
			out = append(out, &routes[i])
		}
	}
	return out
}

func TestRegistrySampleCompleteness(t *testing.T) {
	for _, rt := range opRoutes() {
		body, ok := sampleBodies[rt.name]
		if !ok {
			t.Errorf("op %q has no sample body in sampleBodies", rt.name)
			continue
		}
		if _, _, _, err := rt.op([]byte(body), 0); err != nil {
			t.Errorf("op %q: sample body rejected: %v", rt.name, err)
		}
	}
	registered := make(map[string]bool)
	for _, rt := range opRoutes() {
		registered[rt.name] = true
	}
	for name := range sampleBodies {
		if !registered[name] {
			t.Errorf("sampleBodies entry %q matches no registered op", name)
		}
	}
}

// TestEndpointsCoverRegistry asserts Endpoints() lists every registered
// op (as POST) plus the four GET routes — derived, so this can only
// fail if Endpoints() stops deriving.
func TestEndpointsCoverRegistry(t *testing.T) {
	eps := Endpoints()
	listed := make(map[string]bool, len(eps))
	for _, e := range eps {
		listed[e] = true
	}
	for _, rt := range opRoutes() {
		if !listed["POST "+rt.path] {
			t.Errorf("Endpoints() is missing POST %s", rt.path)
		}
	}
	for _, e := range []string{"POST /v1/frontier/stream", "POST /v1/batch", "GET /v1/version", "GET /v1/models", "GET /healthz", "GET /metrics"} {
		if !listed[e] {
			t.Errorf("Endpoints() is missing %s", e)
		}
	}
	if want := len(opRoutes()) + 6; len(eps) != want {
		t.Errorf("Endpoints() has %d entries, want %d", len(eps), want)
	}
}

// TestMetricsCoverRegistry drives one successful request through every
// registered op and asserts both /metrics renderings emit per-endpoint
// families for it: the JSON requests counter, the Prometheus
// requests_total sample, and the request-duration histogram series.
func TestMetricsCoverRegistry(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, rt := range opRoutes() {
		rec := do(t, s, http.MethodPost, rt.path, sampleBodies[rt.name])
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d (body %s)", rt.path, rec.Code, rec.Body)
		}
	}

	var m Metrics
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/metrics", "").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	prom := do(t, s, http.MethodGet, "/metrics?format=prometheus", "").Body.String()
	durSeries := make(map[string]bool)
	for _, fam := range s.Telemetry().Snapshot() {
		if fam.Name == famRequestDuration {
			for _, series := range fam.Series {
				durSeries[series.Label] = true
			}
		}
	}
	for _, rt := range opRoutes() {
		name := rt.name
		if m.Requests[name] != 1 {
			t.Errorf("JSON metrics: requests[%q] = %d, want 1", name, m.Requests[name])
		}
		if want := `heterosimd_requests_total{endpoint="` + name + `"} 1`; !strings.Contains(prom, want) {
			t.Errorf("Prometheus metrics: missing %q", want)
		}
		if !durSeries[name] {
			t.Errorf("request-duration histogram has no series for %q", name)
		}
	}
}

// TestCacheKeyIgnoresWorkers asserts, generically over the model ops,
// that a request's worker count never reaches its cache key: the same
// body with "workers" injected must produce an identical key, so two
// clients asking for different parallelism share one cached response.
// Ops whose request type has no workers field reject the injected
// body's unknown field under strict decode, which equally keeps workers
// out of the key.
func TestCacheKeyIgnoresWorkers(t *testing.T) {
	for _, rt := range opRoutes() {
		base, _, _, err := rt.op([]byte(sampleBodies[rt.name]), 0)
		if err != nil {
			t.Fatalf("%s: %v", rt.name, err)
		}
		var decoded map[string]json.RawMessage
		if err := json.Unmarshal([]byte(sampleBodies[rt.name]), &decoded); err != nil {
			t.Fatal(err)
		}
		decoded["workers"] = json.RawMessage("7")
		withWorkers, err := json.Marshal(decoded)
		if err != nil {
			t.Fatal(err)
		}
		key, _, _, err := rt.op(withWorkers, 0)
		if err != nil {
			if strings.Contains(err.Error(), "unknown field") {
				continue // no workers field at all: trivially key-invariant
			}
			t.Fatalf("%s: Prepare with workers failed: %v", rt.name, err)
		}
		if key != base {
			t.Errorf("%s: workers leaked into the cache key:\n--- without ---\n%q\n--- with ---\n%q",
				rt.name, base, key)
		}
	}
}

// TestRouteNamesUnique pins the route table's invariant: a name labels
// one endpoint's counters and a batch item's op, and a path is routed
// once, so neither may repeat.
func TestRouteNamesUnique(t *testing.T) {
	names, paths := make(map[string]bool), make(map[string]bool)
	for _, rt := range routes {
		if names[rt.name] || paths[rt.path] {
			t.Errorf("route %s %s repeats a name or a path", rt.name, rt.path)
		}
		names[rt.name], paths[rt.path] = true, true
	}
}

// TestWorkersDoNotChangeResponses runs every op's sample at two worker
// counts and compares response bytes — the determinism guarantee holds
// across every model op, new ops included.
func TestWorkersDoNotChangeResponses(t *testing.T) {
	for _, rt := range opRoutes() {
		var got []string
		for _, workers := range []int{1, 4} {
			_, _, eval, err := rt.op([]byte(sampleBodies[rt.name]), workers)
			if err != nil {
				t.Fatalf("%s: %v", rt.name, err)
			}
			resp, err := eval(context.Background())
			if err != nil {
				t.Fatalf("%s: eval: %v", rt.name, err)
			}
			got = append(got, string(resp))
		}
		if got[0] != got[1] {
			t.Errorf("%s: response depends on worker count:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s",
				rt.name, got[0], got[1])
		}
	}
}
