package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestFrontierStreamGolden pins the complete frontier NDJSON stream —
// header schema, node-major row schema and order, trailer with the
// crossover table — the same way sweep_stream.golden pins the sweep.
// Non-regenerable: these bytes are the wire contract.
func TestFrontierStreamGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodPost, "/v1/frontier/stream", `{"workload":"MMM","f":0.9,"scenario":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if cc := rec.Header().Get("X-Heterosim-Cache"); cc != "stream" {
		t.Errorf("X-Heterosim-Cache = %q, want stream", cc)
	}
	want := mustGolden(t, "frontier_stream.golden")
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("streamed frontier drifted from the pinned NDJSON contract:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// rawComparePair splits one buffered compare pair into raw parts so
// its rows can be compared byte-for-byte with the stream.
type rawComparePair struct {
	Scenario int               `json:"scenario"`
	Name     string            `json:"name"`
	Rows     []json.RawMessage `json:"rows"`
}

// TestFrontierMatchesCompareRows is the streamed == buffered property
// for the trajectory surfaces, across every model backend: each
// /v1/frontier/stream row must be byte-identical to the corresponding
// rows element of /v1/compare's pair for the same (scenario, model) —
// the two endpoints answer the same question through one encoder.
func TestFrontierMatchesCompareRows(t *testing.T) {
	for _, backend := range []string{"", "multiamdahl", "multiamdahl-thermal", "sqrtm"} {
		name := backend
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			model := ""
			if backend != "" {
				model = `,"model":"` + backend + `"`
			}
			s := newTestServer(t, Config{})
			buf := do(t, s, http.MethodPost, "/v1/compare",
				`{"workload":"FFT-1024","f":0.99,"pairs":[{"scenario":2`+model+`}]}`)
			if buf.Code != http.StatusOK {
				t.Fatalf("compare status = %d (body %s)", buf.Code, buf.Body)
			}
			var resp struct {
				Pairs []rawComparePair `json:"pairs"`
			}
			if err := json.Unmarshal(buf.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Pairs) != 1 {
				t.Fatalf("got %d pairs, want 1", len(resp.Pairs))
			}
			want := resp.Pairs[0].Rows

			st := do(t, s, http.MethodPost, "/v1/frontier/stream",
				`{"workload":"FFT-1024","f":0.99,"scenario":2`+model+`}`)
			if st.Code != http.StatusOK {
				t.Fatalf("stream status = %d (body %s)", st.Code, st.Body)
			}
			lines := strings.Split(strings.TrimSuffix(st.Body.String(), "\n"), "\n")
			if len(lines) != len(want)+2 {
				t.Fatalf("stream has %d lines, want %d rows + header + trailer", len(lines), len(want))
			}
			for i, w := range want {
				if got := lines[i+1]; got != string(w) {
					t.Errorf("row %d differs:\nstream:  %s\ncompare: %s", i, got, w)
				}
			}
		})
	}
}

// TestCompareValidation holds /v1/compare to the 400 contract for
// request bugs: empty and oversized pair lists, out-of-range scenarios,
// duplicate pairs (including duplicates only visible after the
// top-level model default is pushed down).
func TestCompareValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	pairs := make([]string, maxComparePairs+1)
	for i := range pairs {
		pairs[i] = `{"scenario":1}`
	}
	cases := []struct {
		name, body string
	}{
		{"no pairs", `{"workload":"MMM","f":0.9,"pairs":[]}`},
		{"too many pairs", `{"workload":"MMM","f":0.9,"pairs":[` + strings.Join(pairs, ",") + `]}`},
		{"scenario out of range", `{"workload":"MMM","f":0.9,"pairs":[{"scenario":7}]}`},
		{"negative scenario", `{"workload":"MMM","f":0.9,"pairs":[{"scenario":-1}]}`},
		{"duplicate pair", `{"workload":"MMM","f":0.9,"pairs":[{"scenario":3},{"scenario":3}]}`},
		{"duplicate via pushdown", `{"workload":"MMM","f":0.9,"model":"sqrtm","pairs":[{"scenario":3},{"scenario":3,"model":"sqrtm"}]}`},
		{"unknown model", `{"workload":"MMM","f":0.9,"pairs":[{"scenario":1,"model":"nope"}]}`},
		{"bad f", `{"workload":"MMM","f":2,"pairs":[{"scenario":1}]}`},
		{"bad workload", `{"workload":"nope","f":0.9,"pairs":[{"scenario":1}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, http.MethodPost, "/v1/compare", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400 (body %s)", rec.Code, rec.Body)
			}
		})
	}
}

// TestCompareModelHeader: a uniform-model compare reports the backend
// in X-Heterosim-Model; a mixed-model one must not claim a single
// backend.
func TestCompareModelHeader(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodPost, "/v1/compare",
		`{"workload":"MMM","f":0.9,"model":"sqrtm","pairs":[{"scenario":1},{"scenario":2}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	if m := rec.Header().Get("X-Heterosim-Model"); m != "sqrtm" {
		t.Errorf("uniform compare: X-Heterosim-Model = %q, want sqrtm", m)
	}
	rec = do(t, s, http.MethodPost, "/v1/compare",
		`{"workload":"MMM","f":0.9,"pairs":[{"scenario":1},{"scenario":2,"model":"sqrtm"}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	if m := rec.Header().Get("X-Heterosim-Model"); m != "" {
		t.Errorf("mixed compare: X-Heterosim-Model = %q, want unset", m)
	}
}

// TestStreamParamDispatch holds the route table's query-param and
// method contract on every endpoint Endpoints() lists, for GET and POST
// with no stream parameter, stream=ndjson and stream=xml. A POST route
// checks the parameter before the method: ?stream= on a buffered-only
// route is a 400 naming the route, an unknown stream value is a 400 on
// a streaming route, and the stream-only frontier streams on a bare
// POST. GET routes answer any method and ignore the parameter.
func TestStreamParamDispatch(t *testing.T) {
	const (
		ok        = "200"
		usePOST   = "405 use POST"
		badFormat = `400 unknown stream format "xml" (want ndjson)`
	)
	noStream := func(name string) string {
		return "400 " + name + " does not stream: drop the stream parameter"
	}
	buffered := func(name string) [6]string {
		n := noStream(name)
		return [6]string{usePOST, n, n, ok, n, n}
	}
	streams := [6]string{usePOST, usePOST, badFormat, ok, ok, badFormat}
	getRoute := [6]string{ok, ok, ok, ok, ok, ok}
	// Cells: GET with no param, ?stream=ndjson, ?stream=xml, then POST
	// with the same three.
	want := map[string][6]string{
		"POST /v1/optimize":        buffered("optimize"),
		"POST /v1/sweep":           streams,
		"POST /v1/project":         buffered("project"),
		"POST /v1/scenario":        buffered("scenario"),
		"POST /v1/sensitivity":     buffered("sensitivity"),
		"POST /v1/ablation":        buffered("ablation"),
		"POST /v1/compare":         buffered("compare"),
		"POST /v1/frontier/stream": streams,
		"POST /v1/batch":           buffered("batch"),
		"GET /v1/version":          getRoute,
		"GET /v1/models":           getRoute,
		"GET /healthz":             getRoute,
		"GET /metrics":             getRoute,
	}
	bodies := map[string]string{
		"/v1/frontier/stream": `{"workload":"MMM","f":0.9}`,
		"/v1/batch":           `{"items":[{"op":"optimize","request":` + sampleBodies["optimize"] + `}]}`,
	}
	for _, op := range registry.Ops() {
		bodies[op.Path()] = sampleBodies[op.Name()]
	}

	eps := Endpoints()
	if len(eps) != len(want) {
		t.Errorf("Endpoints() has %d routes, the table pins %d", len(eps), len(want))
	}
	s := newTestServer(t, Config{})
	for _, ep := range eps {
		cells, ok := want[ep]
		if !ok {
			t.Errorf("%s: no row in the dispatch table", ep)
			continue
		}
		path := ep[strings.IndexByte(ep, ' ')+1:]
		i := 0
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			for _, param := range []string{"", "?stream=ndjson", "?stream=xml"} {
				cell := cells[i]
				i++
				rec := do(t, s, method, path+param, bodies[path])
				status, msg, _ := strings.Cut(cell, " ")
				if got := strconv.Itoa(rec.Code); got != status {
					t.Errorf("%s %s%s: status = %s, want %s (body %s)", method, path, param, got, status, rec.Body)
					continue
				}
				if msg == "" {
					continue
				}
				var body apiError
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Message != msg {
					t.Errorf("%s %s%s: body = %s, want error %q", method, path, param, rec.Body, msg)
				}
				if rec.Code == http.StatusMethodNotAllowed && rec.Header().Get("Allow") != http.MethodPost {
					t.Errorf("%s %s%s: Allow = %q, want POST", method, path, param, rec.Header().Get("Allow"))
				}
			}
		}
	}
}
