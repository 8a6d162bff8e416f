package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/ucore"
)

// newTestServer builds a server with test-friendly limits.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do posts JSON (or GETs when body is empty) and returns the recorder.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if got := strings.TrimSpace(rec.Body.String()); got != `{"status":"ok"}` {
		t.Errorf("body = %q", got)
	}
}

func TestVersionEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodGet, "/v1/version", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	var info struct {
		Module    string `json:"module"`
		Version   string `json:"version"`
		GoVersion string `json:"goVersion"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Module != "github.com/calcm/heterosim" || info.Version == "" || !strings.HasPrefix(info.GoVersion, "go") {
		t.Errorf("unexpected version info: %+v", info)
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cfg := s.Config()
	if cfg.Addr != ":8080" || cfg.CacheEntries != 4096 || cfg.MaxInflight < 2 ||
		cfg.MaxQueue != cfg.MaxInflight || cfg.QueueTimeout != 2*time.Second {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	// Negative worker counts normalize to auto rather than erroring —
	// the same policy as the CLI flag.
	s = newTestServer(t, Config{Workers: -5})
	if s.Config().Workers != 0 {
		t.Errorf("Workers = %d, want 0 (normalized)", s.Config().Workers)
	}
	for _, bad := range []Config{
		{MaxInflight: -2},
		{MaxQueue: -3},
		{QueueTimeout: -time.Second},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("config %+v must fail", bad)
		}
	}
	// Negative cache entries mean "coalescing only": storage stays off.
	s = newTestServer(t, Config{CacheEntries: -1})
	body := `{"workload":"MMM","f":0.5,"design":{"kind":"sym"}}`
	do(t, s, http.MethodPost, "/v1/optimize", body)
	rec := do(t, s, http.MethodPost, "/v1/optimize", body)
	if got := rec.Header().Get("X-Heterosim-Cache"); got != "miss" {
		t.Errorf("storage-disabled outcome = %q, want miss", got)
	}
}

func TestOptimizeMatchesEngine(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"workload":"FFT-1024","f":0.99,"node":"22nm","design":{"kind":"het","device":"ASIC"}}`
	rec := do(t, s, http.MethodPost, "/v1/optimize", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}

	// The HTTP answer must be the engine's answer, bit for bit.
	cfg := project.DefaultConfig(paper.FFT1024)
	node, err := cfg.Roadmap.ByName("22nm")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.BudgetsAt(node)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := ucore.PublishedParams(paper.ASIC, paper.FFT1024)
	want, err := core.NewEvaluator().Optimize(core.Design{
		Kind: core.Het, Label: string(paper.ASIC),
		UCore: bounds.UCore{Mu: p.Mu, Phi: p.Phi},
	}, 0.99, b)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Point.Speedup != want.Speedup || resp.Point.R != want.R || resp.Point.Limit != want.Limit.String() {
		t.Errorf("HTTP point %+v differs from engine point %+v", resp.Point, want)
	}
}

func TestOptimizeValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"workload":"MMM","f":0.5,"desing":{}}`, http.StatusBadRequest},
		{"unknown workload", `{"workload":"LINPACK","f":0.5,"design":{"kind":"sym"}}`, http.StatusBadRequest},
		{"bad f", `{"workload":"MMM","f":1.5,"design":{"kind":"sym"}}`, http.StatusBadRequest},
		{"bad kind", `{"workload":"MMM","f":0.5,"design":{"kind":"quantum"}}`, http.StatusBadRequest},
		{"het without params", `{"workload":"MMM","f":0.5,"design":{"kind":"het"}}`, http.StatusBadRequest},
		{"device and mu", `{"workload":"MMM","f":0.5,"design":{"kind":"het","device":"ASIC","mu":2,"phi":1}}`, http.StatusBadRequest},
		{"node and budgets", `{"workload":"MMM","f":0.5,"node":"22nm","budgets":{"area":1,"power":1,"bandwidth":1},"design":{"kind":"sym"}}`, http.StatusBadRequest},
		{"negative budgets", `{"workload":"MMM","f":0.5,"budgets":{"area":-1,"power":1,"bandwidth":1},"design":{"kind":"sym"}}`, http.StatusBadRequest},
		{"unknown node", `{"workload":"MMM","f":0.5,"node":"7nm","design":{"kind":"sym"}}`, http.StatusBadRequest},
		{"bad objective", `{"workload":"MMM","f":0.5,"objective":"area","design":{"kind":"sym"}}`, http.StatusBadRequest},
		{"no published params", `{"workload":"FFT-1024","f":0.5,"design":{"kind":"het","device":"CoreI7"}}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		rec := do(t, s, http.MethodPost, "/v1/optimize", c.body)
		if rec.Code != c.code {
			t.Errorf("%s: status = %d, want %d (body %s)", c.name, rec.Code, c.code, rec.Body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", c.name, rec.Body)
		}
	}
}

func TestInfeasibleMapsTo422(t *testing.T) {
	s := newTestServer(t, Config{})
	// A power budget too small to feed even one BCE is infeasible, which
	// is a model answer, not a transport failure: 422.
	body := `{"workload":"MMM","f":0.9,"budgets":{"area":19,"power":0.0001,"bandwidth":57},"design":{"kind":"sym"}}`
	rec := do(t, s, http.MethodPost, "/v1/optimize", body)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", rec.Code, rec.Body)
	}
}

// TestMethodNotAllowed: every POST route Endpoints() lists answers
// any other method with 405, an Allow header and the same error body.
func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, ep := range Endpoints() {
		path, isPOST := strings.CutPrefix(ep, "POST ")
		if !isPOST {
			continue
		}
		for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete} {
			rec := do(t, s, method, path, "")
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status = %d, want 405", method, path, rec.Code)
			}
			if got := rec.Header().Get("Allow"); got != http.MethodPost {
				t.Errorf("%s %s: Allow = %q, want POST", method, path, got)
			}
			if got := strings.TrimSpace(rec.Body.String()); got != `{"error":"use POST"}` {
				t.Errorf("%s %s: body = %s, want the use-POST error", method, path, got)
			}
		}
	}
}

// TestCacheNormalizesSpellings proves the canonical key ignores JSON
// field order and workload spelling variants: all four spellings of the
// same request hit one cache entry.
func TestCacheNormalizesSpellings(t *testing.T) {
	s := newTestServer(t, Config{})
	bodies := []string{
		`{"workload":"FFT-1024","f":0.9,"design":{"kind":"het","device":"ASIC"}}`,
		`{"workload":"fft","f":0.9,"design":{"kind":"het","device":"asic"}}`,
		`{"f":0.9,"workload":"fft-1024","design":{"device":"ASIC","kind":"HET"}}`,
		`{"design":{"kind":"het","device":"ASIC"},"workload":"FFT1024","f":0.9}`,
	}
	var first []byte
	for i, b := range bodies {
		rec := do(t, s, http.MethodPost, "/v1/optimize", b)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d (body %s)", i, rec.Code, rec.Body)
		}
		wantOutcome := "miss"
		if i > 0 {
			wantOutcome = "hit"
		}
		if got := rec.Header().Get("X-Heterosim-Cache"); got != wantOutcome {
			t.Errorf("request %d: cache outcome %q, want %q", i, got, wantOutcome)
		}
		if i == 0 {
			first = append([]byte(nil), rec.Body.Bytes()...)
		} else if !bytes.Equal(rec.Body.Bytes(), first) {
			t.Errorf("request %d: response differs from first", i)
		}
	}
	if st := s.cache.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 entry and 1 miss", st)
	}
}

// TestWorkerCountDoesNotFragmentCache: the same sweep at different
// worker counts is one cache entry with byte-identical responses.
func TestWorkerCountDoesNotFragmentCache(t *testing.T) {
	s := newTestServer(t, Config{})
	base := `{"workload":"FFT-1024","f":{"values":[0.9,0.99]},"design":{"kind":"het","device":"ASIC"},"bandwidthScale":{"lo":0.5,"hi":2,"steps":3}`
	var first []byte
	for i, workers := range []int{1, 3, 0, -4} {
		body := base + `,"workers":` + itoa(workers) + `}`
		rec := do(t, s, http.MethodPost, "/v1/sweep", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("workers=%d: status %d (body %s)", workers, rec.Code, rec.Body)
		}
		if i == 0 {
			first = append([]byte(nil), rec.Body.Bytes()...)
			continue
		}
		if got := rec.Header().Get("X-Heterosim-Cache"); got != "hit" {
			t.Errorf("workers=%d: outcome %q, want hit (worker count must not fragment the cache)", workers, got)
		}
		if !bytes.Equal(rec.Body.Bytes(), first) {
			t.Errorf("workers=%d: response differs", workers)
		}
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

func TestSweepSurfaceMatchesSerialEngine(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	body := `{"workload":"FFT-1024","node":"22nm","design":{"kind":"het","device":"GTX480"},
		"f":{"values":[0.5,0.9,0.99]},"powerScale":{"values":[0.5,1,2]}}`
	rec := do(t, s, http.MethodPost, "/v1/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 9 {
		t.Fatalf("got %d points, want 9", len(resp.Points))
	}
	// Row-major with the last axis (bandwidth, single value) fastest:
	// f varies slowest, then area (single), power, bandwidth (single).
	wantF := []float64{0.5, 0.5, 0.5, 0.9, 0.9, 0.9, 0.99, 0.99, 0.99}
	wantP := []float64{0.5, 1, 2, 0.5, 1, 2, 0.5, 1, 2}
	cfg := project.DefaultConfig(paper.FFT1024)
	node, _ := cfg.Roadmap.ByName("22nm")
	base, err := cfg.BudgetsAt(node)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := ucore.PublishedParams(paper.GTX480, paper.FFT1024)
	ev := core.NewEvaluator()
	for i, cell := range resp.Points {
		if cell.F != wantF[i] || cell.PowerScale != wantP[i] {
			t.Fatalf("cell %d ordering: got (f=%v, power=%v), want (%v, %v)", i, cell.F, cell.PowerScale, wantF[i], wantP[i])
		}
		b := base
		b.Power *= cell.PowerScale
		want, err := ev.Optimize(core.Design{Kind: core.Het, Label: "x",
			UCore: bounds.UCore{Mu: p.Mu, Phi: p.Phi}}, cell.F, b)
		if err != nil {
			t.Fatalf("cell %d: engine says infeasible, server said %+v", i, cell)
		}
		if !cell.Valid || cell.Speedup != want.Speedup || cell.R != want.R {
			t.Errorf("cell %d: server %+v, engine speedup=%v r=%d", i, cell, want.Speedup, want.R)
		}
	}
	if resp.Best == nil || resp.Feasible != 9 {
		t.Fatalf("best/feasible missing: %+v", resp)
	}
	// Best must be the max-speedup cell with ties to the lowest index.
	bestIdx := 0
	for i := range resp.Points {
		if resp.Points[i].Speedup > resp.Points[bestIdx].Speedup {
			bestIdx = i
		}
	}
	if *resp.Best != resp.Points[bestIdx] {
		t.Errorf("best = %+v, want cell %d %+v", resp.Best, bestIdx, resp.Points[bestIdx])
	}
}

func TestSweepTooLargeRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"workload":"MMM","design":{"kind":"sym"},"f":{"lo":0,"hi":1,"steps":401},
		"powerScale":{"lo":0.1,"hi":10,"steps":500}}`
	rec := do(t, s, http.MethodPost, "/v1/sweep", body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "split the request") {
		t.Errorf("error should tell the client to split: %s", rec.Body)
	}
}

func TestScenarioEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodPost, "/v1/scenario", `{"scenario":5,"workload":"FFT-1024","f":0.99}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	var resp ScenarioResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Name != "10 W budget" || len(resp.Baseline) == 0 || len(resp.Alternative) == 0 {
		t.Fatalf("unexpected scenario response: name=%q base=%d alt=%d", resp.Name, len(resp.Baseline), len(resp.Alternative))
	}
	// The 10 W scenario must hurt: every design's best speedup at the
	// last node is no better than the baseline's.
	for i := range resp.Baseline {
		lb := resp.Baseline[i].Points[len(resp.Baseline[i].Points)-1]
		la := resp.Alternative[i].Points[len(resp.Alternative[i].Points)-1]
		if la.Valid && lb.Valid && la.Speedup > lb.Speedup {
			t.Errorf("design %s: 10 W budget speedup %v exceeds baseline %v", resp.Baseline[i].Label, la.Speedup, lb.Speedup)
		}
	}
	for _, bad := range []string{
		`{"scenario":0,"workload":"MMM","f":0.5}`,
		`{"scenario":7,"workload":"MMM","f":0.5}`,
	} {
		if rec := do(t, s, http.MethodPost, "/v1/scenario", bad); rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", bad, rec.Code)
		}
	}
}

func TestMetricsCountersMove(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, http.MethodPost, "/v1/optimize", `{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}`)
	do(t, s, http.MethodPost, "/v1/optimize", `{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}`)
	do(t, s, http.MethodPost, "/v1/optimize", `{bad`)
	rec := do(t, s, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	var m Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Requests["optimize"] != 3 {
		t.Errorf("optimize requests = %d, want 3", m.Requests["optimize"])
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", m.Cache.Hits, m.Cache.Misses)
	}
	if m.Responses["ok"] != 2 || m.Responses["clientError"] != 1 {
		t.Errorf("responses = %v", m.Responses)
	}
	if m.Admission.Accepted != 1 {
		t.Errorf("admission accepted = %d, want 1 (hit and error bypass the gate)", m.Admission.Accepted)
	}
}

// TestTrailingBracketRejected: a valid body followed by a stray closing
// bracket is malformed, not a request.
func TestTrailingBracketRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}`
	if rec := do(t, s, http.MethodPost, "/v1/optimize", body); rec.Code != http.StatusOK {
		t.Fatalf("valid body: status = %d (body %s)", rec.Code, rec.Body)
	}
	for _, tail := range []string{"]", "}", "]]]garbage"} {
		if rec := do(t, s, http.MethodPost, "/v1/optimize", body+tail); rec.Code != http.StatusBadRequest {
			t.Errorf("body + %q: status = %d, want 400 (body %s)", tail, rec.Code, rec.Body)
		}
	}
}

// TestBufferedResponsesDeclareLength: a buffered 200 carries its
// Content-Length, so clients size their read once and the body needs no
// chunked framing.
func TestBufferedResponsesDeclareLength(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}`
	for _, outcome := range []string{"miss", "hit"} {
		rec := do(t, s, http.MethodPost, "/v1/optimize", body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Heterosim-Cache") != outcome {
			t.Fatalf("%s: status %d, cache %q", outcome, rec.Code, rec.Header().Get("X-Heterosim-Cache"))
		}
		if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
			t.Errorf("%s: Content-Length = %q, want %q", outcome, got, want)
		}
	}
}
