// Package engine is the generic operation layer between the model
// packages and the serving stack. One model operation — optimize, sweep,
// project, scenario, sensitivity, ablation — is described once as an Op:
// a name, a strict JSON request decode, validation that canonicalizes
// the request in place, a canonical cache key derived from the
// canonicalized request, and a ctx-aware evaluation closure producing
// the marshaled response bytes.
//
// The serving pipeline (decode spans, result cache, coalescing,
// admission gate, deadlines, telemetry, access logging, error mapping)
// is written once against the Op interface, so adding an endpoint is one
// registry entry plus its request/response types instead of parallel
// edits to the server, client, metrics, and CLI layers.
package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
)

// Env carries serving-layer defaults an operation may consult while
// validating a request. It is deliberately small: operations must stay
// pure functions of (request, Env) so responses remain cacheable.
type Env struct {
	// Workers is the evaluation worker-pool default applied when a
	// request does not ask for a specific count. Responses must be
	// byte-identical at every worker count, so Workers never
	// participates in cache keys.
	Workers int

	// Meta, when non-nil, lets an operation report request metadata back
	// to the serving layer during Prepare — today the resolved model
	// backend, stamped into response headers and access logs. It flows
	// serving-layer-outward only and never participates in cache keys.
	Meta *Meta
}

// Meta is per-request metadata an operation reports during Prepare.
type Meta struct {
	// Model is the canonical name of the model backend answering the
	// request (e.g. "chung"), including defaulted requests.
	Model string
}

// ReportModel records the resolved model backend when the serving layer
// asked for metadata; it is a no-op under a nil Meta, so tests and
// embedded callers need not allocate one.
func (e Env) ReportModel(name string) {
	if e.Meta != nil {
		e.Meta.Model = name
	}
}

// Op is one model operation as the serving stack consumes it. Prepare
// turns raw request bytes into the canonical cache/coalescing key and a
// deadline-aware evaluation closure; validation failures surface as
// *Error so the transport can map them to 400/422.
type Op interface {
	// Name is the operation's short name, e.g. "optimize". It labels
	// request counters and latency-histogram series.
	Name() string

	// Path is the HTTP route, "/v1/" + Name().
	Path() string

	// Prepare decodes the body strictly (unknown fields are errors),
	// validates and canonicalizes the request, and returns the canonical
	// key plus the evaluation closure. The closure receives the
	// request's deadline-bounded context and must stop early (returning
	// the context error) when it expires.
	Prepare(body []byte, env Env) (key string, eval func(context.Context) ([]byte, error), err error)
}

// BuildFunc is the one endpoint-specific piece of an operation: it
// validates req, canonicalizes it in place (default fields filled,
// spellings normalized, worker counts cleared) so equivalent requests
// share one cache key, and returns the typed evaluation closure.
type BuildFunc[Req, Resp any] func(req *Req, env Env) (func(context.Context) (Resp, error), error)

// op implements Op for one (Req, Resp) pair.
type op[Req, Resp any] struct {
	name  string
	path  string
	build BuildFunc[Req, Resp]
}

// New defines the operation served at "/v1/" + name. The generic
// pipeline it inherits: strict decode into Req, build (validate +
// canonicalize + typed eval), canonical key over the canonicalized
// request, and JSON marshaling of the typed response.
func New[Req, Resp any](name string, build BuildFunc[Req, Resp]) Op {
	return &op[Req, Resp]{name: name, path: "/v1/" + name, build: build}
}

func (o *op[Req, Resp]) Name() string { return o.name }
func (o *op[Req, Resp]) Path() string { return o.path }

func (o *op[Req, Resp]) Prepare(body []byte, env Env) (string, func(context.Context) ([]byte, error), error) {
	var req Req
	if err := DecodeStrict(body, &req); err != nil {
		return "", nil, err
	}
	eval, err := o.build(&req, env)
	if err != nil {
		return "", nil, err
	}
	key, err := CanonicalKey(o.path, req)
	if err != nil {
		return "", nil, err
	}
	return key, func(ctx context.Context) ([]byte, error) {
		resp, err := eval(ctx)
		if err != nil {
			return nil, err
		}
		// Responses that implement Appender (large, hot ones like the
		// sweep surface) skip the reflection encoder; the bytes are
		// identical by contract, fuzz-checked per type.
		if a, ok := any(resp).(Appender); ok {
			return appendExact(a)
		}
		return json.Marshal(resp)
	}, nil
}

// maxPooledEncode is the largest scratch buffer returned to encodeBufs;
// a rare huge response must not pin its buffer for the life of the
// process.
const maxPooledEncode = 1 << 20

var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendExact encodes a into a pooled scratch buffer and returns an
// exact-size copy. The result outlives the request in the result cache,
// so spare capacity there would be held for as long as the entry lives.
func appendExact(a Appender) ([]byte, error) {
	bp := encodeBufs.Get().(*[]byte)
	b, err := a.AppendJSON((*bp)[:0])
	if err != nil {
		encodeBufs.Put(bp)
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	if cap(b) <= maxPooledEncode {
		*bp = b
		encodeBufs.Put(bp)
	}
	return out, nil
}

// Registry is the fixed set of operations a server exposes. Construct
// with NewRegistry at package init; it is immutable afterwards, so it is
// safe for concurrent use.
type Registry struct {
	ops []Op
}

// NewRegistry builds a registry, panicking on duplicate names —
// duplicates are a programming error caught at init, not a runtime
// condition.
func NewRegistry(ops ...Op) *Registry {
	seen := make(map[string]bool, len(ops))
	for _, o := range ops {
		if seen[o.Name()] {
			panic(fmt.Sprintf("engine: duplicate op %q", o.Name()))
		}
		seen[o.Name()] = true
	}
	return &Registry{ops: ops}
}

// Ops returns the operations in registration order.
func (r *Registry) Ops() []Op { return r.ops }

// Names returns the operation names in registration order.
func (r *Registry) Names() []string {
	names := make([]string, len(r.ops))
	for i, o := range r.ops {
		names[i] = o.Name()
	}
	return names
}
