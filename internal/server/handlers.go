package server

import (
	"encoding/json"
	"net/http"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/engine"
	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/pollack"
	"github.com/calcm/heterosim/internal/project"
)

// registry is the model-serving surface: every buffered POST /v1
// endpoint is one engine.Op built from a request type, a
// validation/canonicalization step, and a ctx-aware evaluation closure
// (see the op_*.go files). The serving pipeline — strict decode,
// canonical cache key, coalescing, admission, deadlines, telemetry,
// error mapping — is written once in serveOp; adding an endpoint is one
// entry here plus its op file.
var registry = engine.NewRegistry(
	opOptimize,
	opSweep,
	opProject,
	opScenario,
	opSensitivity,
	opAblation,
	opCompare,
)

// route is one endpoint of the serving surface. A POST route has a
// buffered form (serve), a stream form (stream), or both, dispatched
// on `?stream=`; a GET route has only serve.
type route struct {
	name, method, path string
	serve              func(*Server, http.ResponseWriter, *http.Request) // nil on a stream-only route
	stream             engine.StreamOp                                   // nil on a route that does not stream
}

// routes is the serving surface in Endpoints() order: the registry
// ops, the stream-only frontier, the batch fan-out, then the GET
// routes. It is the one list behind mux registration, the
// per-endpoint counters (indexed like it) and Endpoints(). It is built
// in init because its handlers read it back (the metrics handler
// labels the counters from it), which a package-level initializer may
// not.
var routes []route

func init() {
	// A stream op named like a registry op shares that op's route and
	// counter.
	streams := map[string]engine.StreamOp{streamSweep.Name(): streamSweep}
	var rs []route
	for i, op := range registry.Ops() {
		rs = append(rs, route{op.Name(), http.MethodPost, op.Path(),
			func(s *Server, w http.ResponseWriter, r *http.Request) { s.serveOp(w, r, op, i) },
			streams[op.Name()]})
	}
	routes = append(rs,
		route{streamFrontier.Name(), http.MethodPost, streamFrontier.Path(), nil, streamFrontier},
		route{"batch", http.MethodPost, "/v1/batch", (*Server).handleBatch, nil},
		route{"version", http.MethodGet, "/v1/version", (*Server).handleVersion, nil},
		route{"models", http.MethodGet, "/v1/models", (*Server).handleModels, nil},
		route{"healthz", http.MethodGet, "/healthz", (*Server).handleHealthz, nil},
		route{"metrics", http.MethodGet, "/metrics", (*Server).handleMetrics, nil},
	)
}

// wantsStream classifies a POST route's stream parameter: absent means
// the buffered form (the stream on a stream-only route), "ndjson" the
// stream. On a route with no stream form any value is a 400 naming the
// route, and on a streaming route any other value is a 400, so the
// parameter is never silently ignored. A request with no query string
// skips the parse.
func (rt *route) wantsStream(r *http.Request) (bool, error) {
	v := ""
	if r.URL.RawQuery != "" {
		v = r.URL.Query().Get("stream")
	}
	switch {
	case v == "":
		return rt.serve == nil, nil
	case rt.stream == nil:
		return false, badRequest("%s does not stream: drop the stream parameter", rt.name)
	case v == "ndjson":
		return true, nil
	default:
		return false, badRequest("unknown stream format %q (want ndjson)", v)
	}
}

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
	canon, err := canonicalModel(name, env)
	if err != nil {
		return nil, err
	}
	m, cp, err := model.New(canon, alpha, 0, *params)
	if err != nil {
		return nil, badRequest("model %s: %v", canon, err)
	}
	storeModel(name, params, canon, cp)
	return m, nil
}

// resolveModelFactory is resolveModel for the projection operations
// (project, scenario, compare, frontier, ablation): construction is
// deferred behind a model.Factory so configuration transforms applied
// later — scenario 6's alpha override, the ablation's MaxR pinning —
// reach the backend. The params are decoded, validated and
// canonicalized once, here, at request decode time; each projection
// then only applies (alpha, maxR). The default backend gets a nil
// factory, which the projection resolves to chung itself.
func resolveModelFactory(name *string, params *json.RawMessage, env engine.Env) (model.Factory, error) {
	canon, err := canonicalModel(name, env)
	if err != nil {
		return nil, err
	}
	mk, cp, err := model.Configure(canon, *params)
	if err != nil {
		return nil, badRequest("model %s: %v", canon, err)
	}
	storeModel(name, params, canon, cp)
	if *name == "" {
		return nil, nil
	}
	return mk, nil
}

// canonicalModel resolves a request's model name against the registry
// and reports the backend to the serving layer.
func canonicalModel(name *string, env engine.Env) (string, error) {
	canon, err := model.Canonical(*name)
	if err != nil {
		return "", badRequest("%v", err)
	}
	env.ReportModel(canon)
	return canon, nil
}

// storeModel writes the canonical pair back into the request, the
// default backend as the omitted form (chung takes no params, so cp is
// already nil).
func storeModel(name *string, params *json.RawMessage, canon string, cp json.RawMessage) {
	if canon == model.DefaultName {
		canon = ""
	}
	*name, *params = canon, cp
}

// ModelsResponse is the GET /v1/models document: the registry's
// backends in registration order plus the name answering defaulted
// requests.
type ModelsResponse struct {
	Default string       `json:"default"`
	Models  []model.Info `json:"models"`
}

// Endpoints lists the serving surface as "METHOD /path", read off the
// route table so startup logs and smoke checks can never drift from
// what is actually routed.
func Endpoints() []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.method + " " + rt.path
	}
	return out
}
