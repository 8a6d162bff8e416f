package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzEndpoint is the shared harness: POST the fuzzed body and hold the
// handler to the error contract — it must never panic, never answer a
// malformed or absurd request with a 5xx (bad input is the client's
// fault: 400 for shape errors, 422 for infeasible-but-well-formed), and
// must always produce valid JSON. On a buffered op the body is then
// sent twice more and must get the same status, bytes and model header
// each time, whether its key comes from Prepare or from the
// repeated-body memo. A batch is exempt: its body reports each item's
// cache outcome, which a repeat changes by design.
func fuzzEndpoint(f *testing.F, path string, seeds []string) {
	f.Helper()
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("%s: body %q got status %d (%s)", path, body, rec.Code, rec.Body.String())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s: body %q got non-JSON response %q", path, body, rec.Body.String())
		}
		if path != "/v1/batch" {
			requireRepeatable(t, h, path, body, rec)
		}
	})
}

// requireRepeatable sends body twice more and requires the first
// response's status, bytes and model header each time.
func requireRepeatable(t *testing.T, h http.Handler, path string, body []byte, first *httptest.ResponseRecorder) {
	t.Helper()
	for i := 2; i <= 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != first.Code || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) ||
			rec.Header().Get(headerModel) != first.Header().Get(headerModel) {
			t.Fatalf("%s: body %q send %d = %d %q (model %q), want %d %q (model %q)", path, body, i,
				rec.Code, rec.Body.String(), rec.Header().Get(headerModel),
				first.Code, first.Body.String(), first.Header().Get(headerModel))
		}
	}
}

func FuzzOptimize(f *testing.F) {
	fuzzEndpoint(f, "/v1/optimize", []string{
		`{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}`,
		`{"workload":"BS","f":0.99,"design":{"kind":"het","device":"asic"},"objective":"energy"}`,
		`{"workload":"MMM","f":0.9,"budgets":{"area":-1e308,"power":0,"bandwidth":1e308},"design":{"kind":"het","device":"gtx480"}}`,
		`{"workload":"MMM","f":NaN,"design":{"kind":"sym"}}`,
		`{"workload":"MMM","f":1e999,"design":{"kind":"sym"}}`,
		`{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"typo":1}`,
		`{bad`,
		``,
		`null`,
		`[1,2,3]`,
	})
}

func FuzzSweep(f *testing.F) {
	fuzzEndpoint(f, "/v1/sweep", []string{
		`{"workload":"MMM","design":{"kind":"sym"},"f":{"lo":0.5,"hi":0.9,"steps":3}}`,
		`{"workload":"BS","design":{"kind":"het","device":"gtx285"},"f":{"values":[0.9,0.99]},"areaScale":{"lo":0.5,"hi":2,"steps":4}}`,
		`{"workload":"MMM","design":{"kind":"sym"},"f":{"lo":0,"hi":1,"steps":2000000}}`,
		`{"workload":"MMM","design":{"kind":"sym"},"f":{"steps":-5}}`,
		`{"workload":"MMM","design":{"kind":"sym"},"f":{"lo":0.9,"hi":0.1,"steps":3}}`,
		`{"f":{}}`,
		`{bad`,
		`0`,
	})
}

func FuzzProject(f *testing.F) {
	fuzzEndpoint(f, "/v1/project", []string{
		`{"workload":"MMM","f":0.9}`,
		`{"workload":"FFT-1024","f":0.99,"scenario":3,"objective":"energy"}`,
		`{"workload":"MMM","f":0.9,"power":-1e308,"bandwidth":1e308}`,
		`{"workload":"MMM","f":2}`,
		`{"workload":"MMM","f":0.9,"scenario":999}`,
		`{"workload":"MMM","f":0.9,"workers":-2147483648}`,
		`{bad`,
		`"a string"`,
	})
}

func FuzzSensitivity(f *testing.F) {
	fuzzEndpoint(f, "/v1/sensitivity", []string{
		`{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"samples":50}`,
		`{"workload":"FFT-1024","f":0.99,"node":"22nm","design":{"kind":"het","device":"ASIC"},"samples":20,"seed":-9223372036854775808}`,
		`{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"step":0.49999999,"sigma":2,"samples":10}`,
		`{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"step":-1}`,
		`{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"sigma":1e308}`,
		`{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"samples":100001}`,
		`{"workload":"MMM","f":0.9,"design":{"kind":"het","mu":1e-308,"phi":1e308},"samples":10}`,
		`{bad`,
		`{}`,
	})
}

func FuzzAblation(f *testing.F) {
	fuzzEndpoint(f, "/v1/ablation", []string{
		`{"workload":"MMM","f":0.9,"node":"40nm"}`,
		`{"workload":"FFT-1024","f":0.999}`,
		`{"workload":"BS","f":0.9,"node":"11nm","workers":-1}`,
		`{"workload":"MMM","f":0.9,"node":"1nm"}`,
		`{"workload":"MMM","f":1e-300}`,
		`{"workload":"MMM","f":0.9,"node":""}`,
		`{bad`,
		`[]`,
	})
}

func FuzzCompare(f *testing.F) {
	fuzzEndpoint(f, "/v1/compare", []string{
		`{"workload":"MMM","f":0.9,"pairs":[{"scenario":1},{"scenario":2}]}`,
		`{"workload":"FFT-1024","f":0.99,"model":"sqrtm","pairs":[{"scenario":0}]}`,
		`{"workload":"MMM","f":NaN,"pairs":[{"scenario":1}]}`,
		`{"workload":"MMM","f":0.9,"pairs":[]}`,
		`{"workload":"MMM","f":0.9,"pairs":[{"scenario":99}]}`,
		`{"workload":"MMM","f":0.9,"pairs":[{"scenario":3},{"scenario":3}]}`,
		`{"workload":"MMM","f":0.9,"model":"sqrtm","pairs":[{"scenario":3},{"scenario":3,"model":"sqrtm"}]}`,
		`{"workload":"MMM","f":0.9,"pairs":[{"scenario":1,"model":"nope","modelParams":{"x":1}}]}`,
		`{bad`,
		`{}`,
	})
}

// FuzzFrontier is the NDJSON-aware variant of the shared harness: the
// stream endpoint's error contract is the same (no panics, no 5xx for
// bad input), but a 200 body is a sequence of JSON lines, each of
// which must decode, not one document.
func FuzzFrontier(f *testing.F) {
	for _, s := range []string{
		`{"workload":"MMM","f":0.9,"scenario":1}`,
		`{"workload":"FFT-1024","f":0.99,"scenario":0,"model":"multiamdahl-thermal"}`,
		`{"workload":"MMM","f":NaN,"scenario":1}`,
		`{"workload":"MMM","f":0.9,"scenario":9}`,
		`{"workload":"nope","f":0.9}`,
		`{"workload":"MMM","f":0.9,"model":"nope"}`,
		`{"workload":"MMM","f":0.9,"workers":-2147483648}`,
		`{bad`,
		`{}`,
	} {
		f.Add([]byte(s))
	}
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/frontier/stream", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			for i, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
				if !json.Valid([]byte(line)) {
					t.Fatalf("body %q: stream line %d is not JSON: %q", body, i, line)
				}
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("body %q got non-JSON error response %q", body, rec.Body.String())
			}
		default:
			t.Fatalf("body %q got status %d (%s)", body, rec.Code, rec.Body.String())
		}
		requireRepeatable(t, h, "/v1/frontier/stream", body, rec)
	})
}

func FuzzScenario(f *testing.F) {
	fuzzEndpoint(f, "/v1/scenario", []string{
		`{"scenario":1,"workload":"MMM","f":0.9}`,
		`{"scenario":6,"workload":"BS","f":0.999}`,
		`{"scenario":0,"workload":"MMM","f":0.9}`,
		`{"scenario":7,"workload":"MMM","f":0.9}`,
		`{"scenario":1,"workload":"nope","f":0.9}`,
		`{"scenario":1,"workload":"MMM","f":-0.5}`,
		`{bad`,
		`{}`,
	})
}
