package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"github.com/calcm/heterosim/internal/engine"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/telemetry"
)

// POST /v1/batch — a heterogeneous list of registry ops in one
// round-trip: decoded once, admitted once, fanned out through
// internal/par, with per-item status/cache/model metadata so a burst
// of N correlated design-space questions costs one HTTP exchange
// instead of N.
//
// Semantics: the batch itself answers 200 whenever its envelope was
// well-formed; each item carries its own status exactly as the
// standalone endpoint would have produced (200/400/422/429/...), so
// partial success is first-class. Structural problems — not JSON, no
// items, too many items — are batch-level 4xxs. Items flow through the
// same per-op Prepare, cache/coalescing/peer lookup, and error mapping
// as standalone requests: two identical items in one batch coalesce
// onto one evaluation, and a batch item's response bytes are
// byte-identical to the standalone endpoint's.
//
// "Admitted once" means the whole batch occupies at most one admission
// slot: the first item that actually needs to evaluate acquires the
// gate and every later evaluating item shares that slot (hits and
// coalesced items bypass the gate, exactly like standalone requests).
// A gate rejection surfaces as that item's status, not the batch's.

// maxBatchItems bounds one batch; bigger bursts should be split so the
// admission gate can interleave other traffic between them.
const maxBatchItems = 256

// BatchItemRequest is one operation in a batch: the registry op name
// and its request body, verbatim.
type BatchItemRequest struct {
	Op      string          `json:"op"`
	Request json.RawMessage `json:"request"`
}

// BatchRequest is the POST /v1/batch envelope.
type BatchRequest struct {
	Items []BatchItemRequest `json:"items"`
}

// BatchItemResponse is one item's outcome. Status is the HTTP status
// the standalone endpoint would have answered; Response carries the
// byte-identical standalone body on success, Error the message
// otherwise. Cache is the item's cache outcome
// (hit/miss/coalesced/stale/peer) and Model the canonical backend that
// answered, both mirroring the standalone response headers.
type BatchItemResponse struct {
	Op       string          `json:"op"`
	Status   int             `json:"status"`
	Cache    string          `json:"cache,omitempty"`
	Model    string          `json:"model,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// BatchResponse is the batch envelope: items in request order plus the
// ok/failed tally.
type BatchResponse struct {
	Items  []BatchItemResponse `json:"items"`
	OK     int                 `json:"ok"`
	Failed int                 `json:"failed"`
}

// batchAdmission shares one gate slot across every evaluating item of
// a batch. The first evaluation acquires; the batch handler releases
// after the fan-out drains. A rejection is remembered so later items
// fail fast with the same status instead of re-queueing.
type batchAdmission struct {
	gate *gate

	mu      sync.Mutex
	release func() // non-nil: the batch holds its slot
	status  int    // non-zero: admission failed with this HTTP status
}

// acquire is the batch's admitter: status 0 once the batch holds its
// slot, or the gate's rejection status. The slot outlives each item,
// so the item's release is a no-op. Safe for concurrent use by the
// fan-out workers.
func (a *batchAdmission) acquire(ctx context.Context) (func(), int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.release == nil && a.status == 0 {
		a.release, a.status = a.gate.acquire(ctx)
	}
	return func() {}, a.status
}

// done releases the batch's slot, if one was acquired.
func (a *batchAdmission) done() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.release != nil {
		a.release()
		a.release = nil
	}
}

// fail records an item's failure as the classifier answers it.
func (it *BatchItemResponse) fail(err error) {
	ae := classify(err)
	it.Status, it.Error = ae.Status, ae.Message
}

// handleBatch serves POST /v1/batch; the route has already counted the
// request and checked the method and stream parameter.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	// Prepare every item up front — decode once, before any evaluation —
	// so validation failures are itemized without costing a gate slot.
	type prepared struct {
		key  string
		eval func(context.Context) ([]byte, error)
	}
	var items []BatchItemResponse
	var preps []prepared
	if !s.prepare(w, r, func(body []byte, _ engine.Env) error {
		var req BatchRequest
		if err := engine.DecodeStrict(body, &req); err != nil {
			return err
		}
		if len(req.Items) == 0 {
			return badRequest("batch needs at least one item")
		}
		if len(req.Items) > maxBatchItems {
			return badRequest("batch has %d items, limit %d: split the request", len(req.Items), maxBatchItems)
		}
		items = make([]BatchItemResponse, len(req.Items))
		preps = make([]prepared, len(req.Items))
		for i, it := range req.Items {
			items[i].Op = it.Op
			op, ok := registryOps[it.Op]
			if !ok {
				items[i].fail(badRequest("unknown op %q", it.Op))
				continue
			}
			meta := engine.Meta{}
			key, eval, err := op.Prepare(it.Request, engine.Env{Workers: s.cfg.Workers, Meta: &meta})
			items[i].Model = meta.Model
			if err != nil {
				items[i].fail(err)
				continue
			}
			preps[i] = prepared{key: key, eval: eval}
		}
		return nil
	}) {
		return
	}

	// One deadline bounds the whole batch, mirroring one request.
	ctx, cancel := s.withDeadline(r.Context())
	defer cancel()
	adm := &batchAdmission{gate: s.gate}
	defer adm.done()
	// Fan out through the bounded pool. Errors never propagate to
	// ForEach — each item keeps its own — so one failing item cannot
	// cancel its siblings; ForEach fails only when the deadline passes
	// or the client leaves.
	err := par.ForEach(ctx, len(items), s.cfg.Workers, func(ctx context.Context, i int) error {
		if preps[i].eval == nil {
			return nil // already itemized as an error
		}
		resp, outcome, err := s.lookup(r, ctx, preps[i].key, func(ctx context.Context) ([]byte, error) {
			return s.evaluate(ctx, adm, items[i].Op, preps[i].eval)
		})
		if err != nil {
			items[i].fail(err)
			return nil
		}
		items[i].Status = http.StatusOK
		items[i].Cache = outcome.String()
		items[i].Response = resp
		return nil
	})
	if err != nil {
		// Items the fan-out never claimed answer as a standalone request
		// stopped the same way would.
		for i := range items {
			if preps[i].eval != nil && items[i].Status == 0 {
				items[i].fail(err)
			}
		}
	}

	out := BatchResponse{Items: items}
	for i := range items {
		if items[i].Status == http.StatusOK {
			out.OK++
		} else {
			out.Failed++
		}
	}
	encode := telemetry.StartSpan(ctx, stageEncode)
	w.Header().Set("Content-Type", "application/json")
	s.responses.ok.Add(1)
	json.NewEncoder(w).Encode(out)
	encode.End()
}
