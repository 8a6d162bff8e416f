package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"github.com/calcm/heterosim/internal/model"
)

// withModel injects a "model" field (and optional params) into a sample
// request body.
func withModel(t *testing.T, body, name string, params string) string {
	t.Helper()
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatal(err)
	}
	decoded["model"] = json.RawMessage(`"` + name + `"`)
	if params != "" {
		decoded["modelParams"] = json.RawMessage(params)
	}
	out, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestModelEndpointMatrix drives every registered op under every
// registered backend: the full backend x endpoint matrix must evaluate
// successfully, and non-default responses must echo the model name.
func TestModelEndpointMatrix(t *testing.T) {
	for _, rt := range opRoutes() {
		for _, name := range model.Names() {
			body := withModel(t, sampleBodies[rt.name], name, "")
			_, _, eval, err := rt.op([]byte(body), 0)
			if err != nil {
				t.Errorf("%s/%s: Prepare: %v", rt.name, name, err)
				continue
			}
			resp, err := eval(context.Background())
			if err != nil {
				t.Errorf("%s/%s: eval: %v", rt.name, name, err)
				continue
			}
			want := `"model":"` + name + `"`
			if name == model.DefaultName {
				if strings.Contains(string(resp), `"model"`) {
					t.Errorf("%s/%s: default response leaks a model field:\n%s", rt.name, name, resp)
				}
			} else if !strings.Contains(string(resp), want) {
				t.Errorf("%s/%s: response does not echo %s:\n%s", rt.name, name, want, resp)
			}
		}
	}
}

// TestModelParamsReachBackends spot-checks that modelParams change
// results: sqrtm at theta=0.5 must match the chung default exactly,
// while a different theta must not.
func TestModelParamsReachBackends(t *testing.T) {
	prepare := opOptimize
	// An asymmetric design: the sequential core's size r is a free
	// variable, so the scaling exponent theta shows up in the optimum.
	base := `{"workload":"MMM","f":0.9,"design":{"kind":"asym"}}`
	eval := func(body string) string {
		t.Helper()
		_, _, ev, err := prepare([]byte(body), 0)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ev(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return string(resp)
	}
	plain := eval(base)
	pollack := eval(withModel(t, base, "sqrtm", `{"theta":0.5}`))
	steep := eval(withModel(t, base, "sqrtm", `{"theta":0.8}`))
	// Strip the echoed model field before comparing numeric payloads.
	strip := func(s string) string {
		s = strings.Replace(s, `,"model":"sqrtm"`, "", 1)
		return s
	}
	if strip(pollack) != plain {
		t.Errorf("sqrtm theta=0.5 differs from the chung default:\n--- chung ---\n%s\n--- sqrtm ---\n%s",
			plain, pollack)
	}
	if strip(steep) == plain {
		t.Error("sqrtm theta=0.8 is identical to the chung default; params are not reaching the backend")
	}
}

// TestChungSpellingsCoalesce asserts every spelling of the default
// backend — omitted, "chung", mixed case — maps to one cache key and
// one byte-identical response, so the cache holds a single entry for
// them and pre-registry golden responses stay valid.
func TestChungSpellingsCoalesce(t *testing.T) {
	for _, rt := range opRoutes() {
		base := sampleBodies[rt.name]
		baseKey, _, baseEval, err := rt.op([]byte(base), 0)
		if err != nil {
			t.Fatalf("%s: %v", rt.name, err)
		}
		baseResp, err := baseEval(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", rt.name, err)
		}
		for _, spelling := range []string{"chung", "CHUNG", "Chung"} {
			body := withModel(t, base, spelling, "")
			key, _, eval, err := rt.op([]byte(body), 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", rt.name, spelling, err)
			}
			if key != baseKey {
				t.Errorf("%s: model %q has its own cache key:\n--- omitted ---\n%q\n--- spelled ---\n%q",
					rt.name, spelling, baseKey, key)
			}
			resp, err := eval(context.Background())
			if err != nil {
				t.Fatalf("%s/%s: eval: %v", rt.name, spelling, err)
			}
			if string(resp) != string(baseResp) {
				t.Errorf("%s: model %q changes response bytes:\n--- omitted ---\n%s\n--- spelled ---\n%s",
					rt.name, spelling, baseResp, resp)
			}
		}
	}
}

// TestModelDistinguishesCacheKeys is the flip side of coalescing:
// non-default backends (and distinct params) must produce distinct keys.
func TestModelDistinguishesCacheKeys(t *testing.T) {
	prepare := opOptimize
	keys := make(map[string]string)
	for _, tc := range []struct{ label, body string }{
		{"chung", sampleBodies["optimize"]},
		{"multiamdahl", withModel(t, sampleBodies["optimize"], "multiamdahl", "")},
		{"sqrtm", withModel(t, sampleBodies["optimize"], "sqrtm", "")},
		{"sqrtm-0.8", withModel(t, sampleBodies["optimize"], "sqrtm", `{"theta":0.8}`)},
	} {
		key, _, _, err := prepare([]byte(tc.body), 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if prev, ok := keys[key]; ok {
			t.Errorf("%s and %s share a cache key: %q", tc.label, prev, key)
		}
		keys[key] = tc.label
	}
}

// TestUnknownModelRejected pins the error path: a bad backend name or
// malformed params must 400 at decode, before any evaluation.
func TestUnknownModelRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range []struct{ label, body string }{
		{"unknown name", withModel(t, sampleBodies["optimize"], "amdahl9000", "")},
		{"bad params", `{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"model":"sqrtm","modelParams":{"theta":-1}}`},
		{"unknown param", `{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"model":"sqrtm","modelParams":{"beta":2}}`},
	} {
		rec := do(t, s, http.MethodPost, "/v1/optimize", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.label, rec.Code, rec.Body)
		}
	}
}

// TestModelsEndpoint pins GET /v1/models: the default name and the
// registry listing in registration order.
func TestModelsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodGet, "/v1/models", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp ModelsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Default != model.DefaultName {
		t.Errorf("default = %q, want %q", resp.Default, model.DefaultName)
	}
	names := model.Names()
	if len(resp.Models) != len(names) {
		t.Fatalf("got %d models, want %d", len(resp.Models), len(names))
	}
	for i, info := range resp.Models {
		if info.Name != names[i] {
			t.Errorf("models[%d] = %q, want %q (registry order)", i, info.Name, names[i])
		}
		if info.Description == "" {
			t.Errorf("models[%d] %q has no description", i, info.Name)
		}
	}
}

// TestVersionStampsModels asserts the version document advertises the
// backend registry.
func TestVersionStampsModels(t *testing.T) {
	s := newTestServer(t, Config{})
	var info struct {
		Models []string `json:"models"`
	}
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/v1/version", "").Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	want := model.Names()
	if len(info.Models) != len(want) {
		t.Fatalf("version models = %v, want %v", info.Models, want)
	}
	for i := range want {
		if info.Models[i] != want[i] {
			t.Fatalf("version models = %v, want %v", info.Models, want)
		}
	}
}

// TestModelHeaderAndCacheCoalescing exercises the serving layer
// end-to-end: a non-default request carries X-Heterosim-Model, and the
// chung spellings coalesce to one cache entry (second spelling hits).
func TestModelHeaderAndCacheCoalescing(t *testing.T) {
	s := newTestServer(t, Config{})
	body := withModel(t, sampleBodies["optimize"], "multiamdahl", "")
	rec := do(t, s, http.MethodPost, "/v1/optimize", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(headerModel); got != "multiamdahl" {
		t.Errorf("%s = %q, want %q", headerModel, got, "multiamdahl")
	}

	const headerCache = "X-Heterosim-Cache"
	if rec := do(t, s, http.MethodPost, "/v1/optimize", sampleBodies["optimize"]); rec.Header().Get(headerCache) != "miss" {
		t.Fatalf("first default request: cache = %q, want miss", rec.Header().Get(headerCache))
	}
	spelled := withModel(t, sampleBodies["optimize"], "chung", "")
	rec = do(t, s, http.MethodPost, "/v1/optimize", spelled)
	if got := rec.Header().Get(headerCache); got != "hit" {
		t.Errorf(`explicit "model":"chung" missed the cache (got %q): spellings are not coalescing`, got)
	}
	if got := rec.Header().Get(headerModel); got != "chung" {
		t.Errorf("%s = %q, want %q", headerModel, got, "chung")
	}
}

// TestAlphaContract pins how every evaluating endpoint treats alpha,
// with the model omitted and with a non-default backend: a negative
// alpha is a 400 naming the Pollack-law constraint, and an omitted
// alpha answers exactly as the paper's explicit 1.75 does.
func TestAlphaContract(t *testing.T) {
	const wantErr = `{"error":"pollack: alpha must be a positive finite number, got -1"}`
	bodies := map[string]string{
		"optimize":    `{"workload":"MMM","f":0.9,"design":{"kind":"asym"}`,
		"sweep":       `{"workload":"MMM","design":{"kind":"asym"},"f":{"values":[0.5,0.9]}`,
		"sensitivity": `{"workload":"MMM","f":0.9,"design":{"kind":"asym"},"samples":20`,
	}
	s := newTestServer(t, Config{})
	for _, ep := range []string{"optimize", "sweep", "sensitivity"} {
		for _, mdl := range []string{"", `,"model":"sqrtm"`} {
			post := func(alpha string) (int, string) {
				t.Helper()
				rec := do(t, s, http.MethodPost, "/v1/"+ep, bodies[ep]+mdl+alpha+"}")
				return rec.Code, strings.TrimSpace(rec.Body.String())
			}
			name := ep + mdl
			if code, body := post(`,"alpha":-1`); code != http.StatusBadRequest || body != wantErr {
				t.Errorf("%s alpha -1: %d %s, want 400 %s", name, code, body, wantErr)
			}
			code0, body0 := post(`,"alpha":0`)
			code1, body1 := post(`,"alpha":1.75`)
			if code0 != http.StatusOK || code1 != http.StatusOK {
				t.Fatalf("%s: alpha 0 -> %d, alpha 1.75 -> %d, want 200 both\n%s\n%s", name, code0, code1, body0, body1)
			}
			if body0 != body1 {
				t.Errorf("%s: alpha 0 and alpha 1.75 differ:\n%s\n%s", name, body0, body1)
			}
		}
	}
}
