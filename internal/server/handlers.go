package server

import (
	"encoding/json"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/engine"
	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/pollack"
	"github.com/calcm/heterosim/internal/project"
)

// registry is the model-serving surface: every POST /v1 endpoint is one
// engine.Op built from a request type, a validation/canonicalization
// step, and a ctx-aware evaluation closure (see the op_*.go files). The
// serving pipeline — strict decode, canonical cache key, coalescing,
// admission, deadlines, telemetry, error mapping — is written once in
// model(); adding an endpoint is one entry here plus its op file.
var registry = engine.NewRegistry(
	opOptimize,
	opSweep,
	opProject,
	opScenario,
	opSensitivity,
	opAblation,
	opCompare,
)

// extraEndpoints are the hand-rolled routes counted beside the
// registry ops in /metrics, in their fixed counter order: the GET
// surface plus the batch fan-out (POST, but not a registry op — one
// batch carries many per-item cache keys, so it cannot ride the
// one-key pipeline).
var extraEndpoints = [...]string{"healthz", "metrics", "version", "models", "batch", "frontier"}

// Counter indices of the hand-rolled endpoints: they follow the
// registry ops. frontier is a stream-only op (no buffered form, so not
// a registry entry) routed through the generic stream pipeline.
var (
	idxHealthz  = len(registry.Names())
	idxMetrics  = idxHealthz + 1
	idxVersion  = idxHealthz + 2
	idxModels   = idxHealthz + 3
	idxBatch    = idxHealthz + 4
	idxFrontier = idxHealthz + 5
)

// registryOps resolves a batch item's op field against the registry.
var registryOps = func() map[string]engine.Op {
	m := make(map[string]engine.Op, len(registry.Ops()))
	for _, op := range registry.Ops() {
		m[op.Name()] = op
	}
	return m
}()

// nodeBudgets resolves a request's (workload, node-name) pair to its
// default-configuration budgets via the precomputed project tables,
// mapping failures (unknown node names) to 400s.
func nodeBudgets(w paper.WorkloadID, nodeName string) (bounds.Budgets, error) {
	b, err := project.DefaultBudgets(w, nodeName)
	if err != nil {
		return bounds.Budgets{}, badRequest("%v", err)
	}
	return b, nil
}

// workersOr resolves a request's worker count: normalized like the CLI
// flag, falling back to the serving default, and cleared in place so a
// worker count never fragments the cache (responses are byte-identical
// at every worker count).
func workersOr(reqWorkers *int, env engine.Env) int {
	w := par.Normalize(*reqWorkers)
	if w == 0 {
		w = env.Workers
	}
	*reqWorkers = 0
	return w
}

// resolveModel canonicalizes a request's (model, modelParams) pair in
// place, reports the resolved backend to the serving layer, and
// constructs it. Canonicalization clears every spelling of the default
// ("", "chung", "CHUNG") back to the omitted form, so default responses
// never echo a model field, and re-marshals other backends' params with
// their defaults filled, so equivalent requests share one cache entry.
// alpha 0 means the paper default and a negative alpha is a 400; maxR
// is always the paper's sweep bound.
func resolveModel(name *string, params *json.RawMessage, alpha float64, env engine.Env) (model.Model, error) {
	// model.New maps every alpha <= 0 to the default, so the sign is
	// checked here, before the name, with pollack's own message.
	if !(alpha >= 0) {
		_, err := pollack.New(alpha)
		return nil, badRequest("%v", err)
	}
	canon, err := model.Canonical(*name)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	env.ReportModel(canon)
	m, cp, err := model.New(canon, alpha, 0, *params)
	if err != nil {
		return nil, badRequest("model %s: %v", canon, err)
	}
	if canon == model.DefaultName {
		canon = "" // chung takes no params, so cp is already nil
	}
	*name, *params = canon, cp
	return m, nil
}

// resolveModelFactory is resolveModel for the projection operations
// (project, scenario, ablation): construction is deferred behind a
// model.Factory so configuration transforms applied later — scenario
// 6's alpha override, the ablation's MaxR pinning — reach the backend.
// The pair is still validated and canonicalized here, at request
// decode time; the default backend gets a nil factory, which the
// projection resolves to chung itself.
func resolveModelFactory(name *string, params *json.RawMessage, env engine.Env) (model.Factory, error) {
	if _, err := resolveModel(name, params, 0, env); err != nil {
		return nil, err
	}
	if *name == "" {
		return nil, nil
	}
	return model.NewFactory(*name, *params), nil
}

// ModelsResponse is the GET /v1/models document: the registry's
// backends in registration order plus the name answering defaulted
// requests.
type ModelsResponse struct {
	Default string       `json:"default"`
	Models  []model.Info `json:"models"`
}

// Endpoints lists the serving surface — derived from the registry so
// startup logs and smoke checks can never drift from what is actually
// routed.
func Endpoints() []string {
	out := make([]string, 0, len(registry.Ops())+6)
	for _, op := range registry.Ops() {
		out = append(out, "POST "+op.Path())
	}
	return append(out, "POST "+streamFrontier.Path(), "POST /v1/batch",
		"GET /v1/version", "GET /v1/models", "GET /healthz", "GET /metrics")
}
