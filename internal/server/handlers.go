package server

import (
	"context"
	"encoding/json"
	"net/http"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/codec"
	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/pollack"
	"github.com/calcm/heterosim/internal/project"
)

// op is one buffered model operation: it decodes a request body
// strictly (unknown fields are errors), validates and canonicalizes the
// request, and returns the canonical cache key, the resolved model
// backend and the evaluation closure. The closure receives the
// request's deadline-bounded context and must stop early (returning the
// context error) when it expires. Validation failures are *Error, so
// the transport can map them to 400/422; the model comes back with the
// error once it has resolved, so the failed response still names it.
// workers is the serving default for requests that ask for no count; it
// never reaches a key or a response.
type op func(body []byte, workers int) (key, model string, eval func(context.Context) ([]byte, error), err error)

// newOp defines the operation served at "/v1/" + name from its one
// endpoint-specific piece, build: validate req, canonicalize it in
// place (default fields filled, spellings normalized, worker counts
// cleared) so equivalent requests share one cache key, and return the
// resolved model and the typed evaluation closure. The pipeline around
// it runs on the codec (internal/codec) from end to end: the strict
// plan decode into Req, the canonical key encoded from the
// canonicalized request, and the typed response encoded at its exact
// size, through its own AppendJSON when it has one (the sweep surface).
func newOp[Req, Resp any](name string, build func(req *Req, workers int) (string, func(context.Context) (Resp, error), error)) op {
	path := "/v1/" + name
	return func(body []byte, workers int) (string, string, func(context.Context) ([]byte, error), error) {
		var req Req
		if err := DecodeStrict(body, &req); err != nil {
			return "", "", nil, err
		}
		model, eval, err := build(&req, workers)
		if err != nil {
			return "", model, nil, err
		}
		key, err := canonicalKey(path, &req)
		if err != nil {
			return "", model, nil, err
		}
		return key, model, func(ctx context.Context) ([]byte, error) {
			resp, err := eval(ctx)
			if err != nil {
				return nil, err
			}
			return codec.Marshal(resp)
		}, nil
	}
}

// streamOp is op's streaming counterpart (see stream.go): the same
// decode, validation and resolved model, then a closure that emits the
// response as NDJSON frames. It has no cache key: streams always
// evaluate.
type streamOp func(body []byte, workers int) (model string, stream streamFunc, err error)

// newStreamOp defines a streaming operation from its build step, as
// newOp does a buffered one.
func newStreamOp[Req any](build func(req *Req, workers int) (string, streamFunc, error)) streamOp {
	return func(body []byte, workers int) (string, streamFunc, error) {
		var req Req
		if err := DecodeStrict(body, &req); err != nil {
			return "", nil, err
		}
		return build(&req, workers)
	}
}

// route is one endpoint of the serving surface. A POST route has a
// buffered form (op, or serve for the batch), a stream form (stream),
// or both, dispatched on `?stream=`; a GET route has only serve.
type route struct {
	name, method, path string
	op                 op                                                // a buffered model op, served by serveOp
	stream             streamOp                                          // nil on a route that does not stream
	serve              func(*Server, http.ResponseWriter, *http.Request) // the batch and the GET routes
}

// routes is the serving surface in Endpoints() order: the model ops,
// the stream-only frontier, the batch fan-out, then the GET routes. It
// is the one list behind mux registration, the per-endpoint counters
// (indexed like it), Endpoints() and the batch's op lookup. Adding a
// model endpoint is one entry here plus its op file. It is built in
// init because its handlers read it back (the metrics handler labels
// the counters from it), which a package-level initializer may not.
var routes []route

func init() {
	post := func(name string, o op, st streamOp) route {
		return route{name: name, method: http.MethodPost, path: "/v1/" + name, op: o, stream: st}
	}
	routes = []route{
		post("optimize", opOptimize, nil),
		post("sweep", opSweep, streamSweep),
		post("project", opProject, nil),
		post("scenario", opScenario, nil),
		post("sensitivity", opSensitivity, nil),
		post("ablation", opAblation, nil),
		post("compare", opCompare, nil),
		{name: "frontier", method: http.MethodPost, path: "/v1/frontier/stream", stream: streamFrontier},
		{name: "batch", method: http.MethodPost, path: "/v1/batch", serve: (*Server).handleBatch},
		{name: "version", method: http.MethodGet, path: "/v1/version", serve: (*Server).handleVersion},
		{name: "models", method: http.MethodGet, path: "/v1/models", serve: (*Server).handleModels},
		{name: "healthz", method: http.MethodGet, path: "/healthz", serve: (*Server).handleHealthz},
		{name: "metrics", method: http.MethodGet, path: "/metrics", serve: (*Server).handleMetrics},
	}
}

// opRoute returns the index of the buffered model op named name in
// routes, or -1: a batch item may name only those.
func opRoute(name string) int {
	for i := range routes {
		if routes[i].op != nil && routes[i].name == name {
			return i
		}
	}
	return -1
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
		return rt.op == nil && rt.serve == nil, nil
	case rt.stream == nil:
		return false, BadRequest("%s does not stream: drop the stream parameter", rt.name)
	case v == "ndjson":
		return true, nil
	default:
		return false, BadRequest("unknown stream format %q (want ndjson)", v)
	}
}

// nodeBudgets resolves a request's (workload, node-name) pair to its
// default-configuration budgets via the precomputed project tables,
// mapping failures (unknown node names) to 400s.
func nodeBudgets(w paper.WorkloadID, nodeName string) (bounds.Budgets, error) {
	b, err := project.DefaultBudgets(w, nodeName)
	if err != nil {
		return bounds.Budgets{}, BadRequest("%v", err)
	}
	return b, nil
}

// workersOr resolves a request's worker count: normalized like the CLI
// flag, falling back to the serving default, and cleared in place so a
// worker count never fragments the cache (responses are byte-identical
// at every worker count).
func workersOr(reqWorkers *int, workers int) int {
	w := par.Normalize(*reqWorkers)
	if w == 0 {
		w = workers
	}
	*reqWorkers = 0
	return w
}

// resolveModel canonicalizes a request's (model, modelParams) pair in
// place, constructs the backend and returns it with its canonical name. Canonicalization clears every spelling of the default
// ("", "chung", "CHUNG") back to the omitted form, so default responses
// never echo a model field, and re-marshals other backends' params with
// their defaults filled, so equivalent requests share one cache entry.
// alpha 0 means the paper default and a negative alpha is a 400; maxR
// is always the paper's sweep bound.
func resolveModel(name *string, params *json.RawMessage, alpha float64) (model.Model, string, error) {
	// model.New maps every alpha <= 0 to the default, so the sign is
	// checked here, before the name, with pollack's own message.
	if !(alpha >= 0) {
		_, err := pollack.New(alpha)
		return nil, "", BadRequest("%v", err)
	}
	canon, err := canonicalModel(*name)
	if err != nil {
		return nil, "", err
	}
	m, cp, err := model.New(canon, alpha, 0, *params)
	if err != nil {
		return nil, canon, BadRequest("model %s: %v", canon, err)
	}
	storeModel(name, params, canon, cp)
	return m, canon, nil
}

// resolveModelFactory is resolveModel for the projection operations
// (project, scenario, compare, frontier, ablation): construction is
// deferred behind a model.Factory so configuration transforms applied
// later — scenario 6's alpha override, the ablation's MaxR pinning —
// reach the backend. The params are decoded, validated and
// canonicalized once, here, at request decode time; each projection
// then only applies (alpha, maxR). The default backend gets a nil
// factory, which the projection resolves to chung itself.
func resolveModelFactory(name *string, params *json.RawMessage) (model.Factory, string, error) {
	canon, err := canonicalModel(*name)
	if err != nil {
		return nil, "", err
	}
	mk, cp, err := model.Configure(canon, *params)
	if err != nil {
		return nil, canon, BadRequest("model %s: %v", canon, err)
	}
	storeModel(name, params, canon, cp)
	if *name == "" {
		return nil, canon, nil
	}
	return mk, canon, nil
}

// canonicalModel resolves a request's model name against the model
// backend registry.
func canonicalModel(name string) (string, error) {
	canon, err := model.Canonical(name)
	if err != nil {
		return "", BadRequest("%v", err)
	}
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
