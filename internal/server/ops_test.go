package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"github.com/calcm/heterosim/internal/ablation"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/sensitivity"
)

// TestSensitivityEndpoint checks /v1/sensitivity against the sensitivity
// package called directly with the same parameters — the endpoint is a
// transport, not a second model.
func TestSensitivityEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodPost, "/v1/sensitivity",
		`{"workload":"FFT-1024","f":0.99,"node":"22nm","design":{"kind":"het","device":"ASIC"},"samples":100}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	var resp SensitivityResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}

	cfg := project.DefaultConfig(paper.FFT1024)
	node, err := cfg.Roadmap.ByName("22nm")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.BudgetsAt(node)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Design{Kind: core.Het, Label: "ASIC"}
	d.UCore.Mu, d.UCore.Phi = resolveASIC(t)
	ev := core.NewEvaluator()
	prof, err := sensitivity.Profile(ev, d, 0.99, b, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Elasticities) != len(prof) {
		t.Fatalf("elasticities = %v, want %d entries", resp.Elasticities, len(prof))
	}
	for in, want := range prof {
		if got := resp.Elasticities[in.String()]; got != want {
			t.Errorf("elasticity[%s] = %v, want %v", in, got, want)
		}
	}
	iv, err := sensitivity.MonteCarlo(ev, d, 0.99, b, 0.2, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := IntervalJSON{Nominal: iv.Nominal, P05: iv.P05, Median: iv.Median, P95: iv.P95, Samples: iv.Samples}
	if resp.MonteCarlo != got {
		t.Errorf("monteCarlo = %+v, want %+v", resp.MonteCarlo, got)
	}
	if resp.Step != 0.01 || resp.Sigma != 0.2 {
		t.Errorf("defaults not echoed: step=%v sigma=%v", resp.Step, resp.Sigma)
	}
}

// resolveASIC fetches the published (mu, phi) for ASIC on FFT-1024 via
// the same DesignSpec path the handler uses.
func resolveASIC(t *testing.T) (mu, phi float64) {
	t.Helper()
	ds := DesignSpec{Kind: "het", Device: "ASIC"}
	d, err := ds.resolve(paper.FFT1024)
	if err != nil {
		t.Fatal(err)
	}
	return d.UCore.Mu, d.UCore.Phi
}

func TestSensitivityValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"bad step", `{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"step":0.7}`, http.StatusBadRequest},
		{"negative step", `{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"step":-0.1}`, http.StatusBadRequest},
		{"huge sigma", `{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"sigma":50}`, http.StatusBadRequest},
		{"few samples", `{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"samples":5}`, http.StatusBadRequest},
		{"absurd samples", `{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"samples":100000000}`, http.StatusBadRequest},
		{"unknown node", `{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"node":"3nm"}`, http.StatusBadRequest},
		{"unknown field", `{"workload":"MMM","f":0.9,"design":{"kind":"sym"},"hsteps":1}`, http.StatusBadRequest},
	} {
		rec := do(t, s, http.MethodPost, "/v1/sensitivity", tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, rec.Code, tc.status, rec.Body)
		}
	}
}

// TestAblationEndpoint checks /v1/ablation against ablation.Studies
// called directly, study names and node resolution included.
func TestAblationEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodPost, "/v1/ablation", `{"workload":"FFT-1024","f":0.999}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	var resp AblationResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Node != "11nm" {
		t.Errorf("default node = %q, want 11nm", resp.Node)
	}
	studies, err := ablation.Studies(paper.FFT1024, 0.999, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Studies) != len(studies) {
		t.Fatalf("got %d studies, want %d", len(resp.Studies), len(studies))
	}
	for i, st := range resp.Studies {
		if st.Study != ablationStudyNames[i] {
			t.Errorf("study[%d] = %q, want %q", i, st.Study, ablationStudyNames[i])
		}
		if len(st.Results) != len(studies[i]) {
			t.Fatalf("study %s: got %d results, want %d", st.Study, len(st.Results), len(studies[i]))
		}
		for j, r := range st.Results {
			want := studies[i][j]
			if r.Design != want.Design || r.Baseline != want.Baseline ||
				r.Ablated != want.Ablated || r.Ratio != want.Ratio {
				t.Errorf("study %s result %d = %+v, want %+v", st.Study, j, r, want)
			}
		}
	}
}

func TestAblationValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"unknown node", `{"workload":"MMM","f":0.9,"node":"7nm"}`, http.StatusBadRequest},
		{"bad f", `{"workload":"MMM","f":1.5}`, http.StatusBadRequest},
		{"unknown workload", `{"workload":"nope","f":0.9}`, http.StatusBadRequest},
		{"unknown field", `{"workload":"MMM","f":0.9,"nodeIdx":4}`, http.StatusBadRequest},
	} {
		rec := do(t, s, http.MethodPost, "/v1/ablation", tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, rec.Code, tc.status, rec.Body)
		}
	}
}

// TestNewOpsEvalHonorsContext proves the deadline contract holds for the
// two new operations: their evaluate closures thread the request context
// down into par.Map, so a cancelled request aborts evaluation instead of
// burning worker time. (server.writeError then maps the context error to
// 504/503; that mapping is covered by the resilience tests.)
func TestNewOpsEvalHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"sensitivity", "ablation"} {
		_, _, eval, err := opByName(t, name)([]byte(sampleBodies[name]), 0)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", name, err)
		}
		if _, err := eval(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: eval(cancelled ctx) = %v, want context.Canceled", name, err)
		}
	}
}

// TestAxisSpecEdgeCases pins the sweep-axis materialization rules the
// shared validation layer enforces.
func TestAxisSpecEdgeCases(t *testing.T) {
	if _, err := (AxisSpec{}).values("f"); err == nil {
		t.Error("empty axis: want error, got none")
	}
	if _, err := (AxisSpec{Values: []float64{0.9}, Steps: 3}).values("f"); err == nil {
		t.Error("values plus lo/hi/steps: want error, got none")
	}
	if _, err := (AxisSpec{Lo: 0.1, Hi: 0.9, Steps: 0}).values("f"); err == nil {
		t.Error("zero steps: want error, got none")
	}
	got, err := (AxisSpec{Lo: 0.5, Hi: 0.9, Steps: 1}).values("f")
	if err != nil || len(got) != 1 || got[0] != 0.5 {
		t.Errorf("single point: got %v, %v; want [0.5]", got, err)
	}
	got, err = (AxisSpec{Values: []float64{0.7}}).values("f")
	if err != nil || len(got) != 1 || got[0] != 0.7 {
		t.Errorf("single value: got %v, %v; want [0.7]", got, err)
	}
	// Reversed bounds are legal and descend: the grid preserves the
	// caller's axis order rather than silently sorting it.
	got, err = (AxisSpec{Lo: 0.9, Hi: 0.1, Steps: 3}).values("f")
	if err != nil || len(got) != 3 || got[0] != 0.9 || got[2] != 0.1 || got[1] >= got[0] {
		t.Errorf("reversed bounds: got %v, %v; want descending [0.9 0.5 0.1]", got, err)
	}
	if ax := unitAxis(nil); len(ax.Values) != 1 || ax.Values[0] != 1 {
		t.Errorf("unitAxis(nil) = %+v, want values [1]", ax)
	}
	if ax := unitAxis(&AxisSpec{Lo: 0.5, Hi: 2, Steps: 4}); ax.Steps != 4 || ax.Lo != 0.5 {
		t.Errorf("unitAxis(non-nil) = %+v, want passthrough", ax)
	}
}
