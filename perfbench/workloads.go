package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/calcm/heterosim/internal/server"
)

// workload is one benchmark workload: how to set it up for a seed.
// Every set-up finishes all warm-up — hot keys cached, cache filled,
// one reproduction run — and collects garbage before returning, so the
// timed phase starts on a stationary process.
type workload struct {
	name  string
	setup func(seed uint64, workers int, traced bool) (instance, error)
	// windowed: throughput_rps, p50_ms and p99_ms are medians over the
	// run's one-second windows. paper-repro completes too few ops a
	// second to window, and reports whole-run figures from exact
	// latencies.
	windowed bool
	// lockstep starts every worker's op together. A reproduction peaks
	// in memory while it builds Figure 2; with the workers drifting
	// apart, peak_rss_mb depended on how far their peaks overlapped and
	// spread by a fifth over ten runs, in lockstep by half that.
	lockstep bool
}

var workloads = []workload{
	{"hot-hit", setupHotHit, true, false},
	{"cold-mix", setupColdMix, true, false},
	{"paper-repro", setupPaperRepro, false, true},
}

// ---- hot-hit ----

// hotHit replays a small, fully warmed key set: every timed request is
// a cache hit, and every body must equal, byte for byte, the body its
// key returned during warm-up.
type hotHit struct {
	*httpRig
	seed   uint64
	set    []genOp
	golden [][]byte
}

func setupHotHit(seed uint64, workers int, traced bool) (instance, error) {
	rig, err := startRig(workers, traced)
	if err != nil {
		return nil, err
	}
	h := &hotHit{httpRig: rig, seed: seed, set: hotSet(seed)}
	ctx := context.WithValue(context.Background(), stateKey{}, &opState{})
	// The first pass fills the cache and records each key's body; the
	// second confirms the hit path returns the same bytes.
	for pass := 0; pass < 2; pass++ {
		for _, op := range h.set {
			if err := rig.call(ctx, -1, op); err != nil {
				rig.close()
				return nil, fmt.Errorf("warming %s key %d: %w", op.kind, op.key, err)
			}
			body := stateOf(ctx).body.Bytes()
			if pass == 0 {
				h.golden = append(h.golden, bytes.Clone(body))
			} else if !bytes.Equal(body, h.golden[op.key]) {
				rig.close()
				return nil, fmt.Errorf("%s key %d: cached body differs from the computed one", op.kind, op.key)
			}
		}
	}
	if n := rig.srv.Snapshot().Cache.Entries; n != len(h.set) {
		rig.close()
		return nil, fmt.Errorf("warm-up cached %d entries, want %d", n, len(h.set))
	}
	runtime.GC()
	return h, nil
}

func (h *hotHit) op(ctx context.Context, i int64) bool {
	return h.call(ctx, i, hotOp(h.set, h.seed, i)) == nil
}

// keep compares the body with its key's warm-up bytes at once: the
// comparison costs far less than the op.
func (h *hotHit) keep(ctx context.Context, i int64) (ok, full bool) {
	return bytes.Equal(stateOf(ctx).body.Bytes(), h.golden[hotOp(h.set, h.seed, i).key]), false
}

func (h *hotHit) drain(context.Context, int) int64 { return 0 }

// ---- cold-mix ----

// coldMix sends only never-seen keys into a cache pre-filled to
// capacity, live and stale tiers both, so every timed insert evicts and
// the heap holds steady. Strictly decoding a body costs about a third as
// much as the op, so bodies are stored as they arrive and checked with
// the clock stopped: every body is strictly decoded, and a seeded
// sample is checked field by field against the library.
type coldMix struct {
	*httpRig
	seed    uint64
	workers int
	setupN  int // cache entries when set-up finished

	mu       sync.Mutex
	kept     int // slots of keptOps used
	used     int // bytes of keptBodies used
	sampled  atomic.Int64
	reported atomic.Int64
}

// Stored bodies go back to back into keptBodies, and keptOps says where
// each is. Both are pointer-free package arrays, outside the
// garbage-collected heap, and set-up touches every page of keptBodies:
// the store's memory is fixed before the clock starts and neither paces
// the program's collector nor grows with the op count. The store counts
// as full keepSlack ops or keepSlack*bodySlack bytes short of its
// limits, room enough for the ops in flight when a segment ends.
const (
	bodyBytes = 48 << 20
	maxKept   = 1 << 15
	keepSlack = 1 << 10 // ops, and times bodySlack bytes
	bodySlack = 4 << 10
)

var (
	keptBodies [bodyBytes]byte
	keptOps    [maxKept]struct {
		i        int64 // op index
		off, end int   // body bytes in keptBodies
	}
)

// maxPrefill bounds the pre-fill in units of cache capacity: the live
// and stale tiers hold one capacity each, and hashing spreads keys
// unevenly over shards, so filling both takes a little over two.
const maxPrefill = 4

func setupColdMix(seed uint64, workers int, traced bool) (instance, error) {
	rig, err := startRig(workers, traced)
	if err != nil {
		return nil, err
	}
	c := &coldMix{httpRig: rig, seed: seed, workers: workers}
	if err := c.prefill(); err != nil {
		rig.close()
		return nil, err
	}
	c.setupN = rig.srv.Snapshot().Cache.Entries
	for p := 0; p < bodyBytes; p += 4096 {
		keptBodies[p] = 0
	}
	runtime.GC()
	return c, nil
}

// prefill evaluates cacheable cold ops from the pre-fill index range
// until both cache tiers are at capacity. It calls the server's handler
// directly: the pre-fill only has to leave the cache as the timed
// stream will keep it, and skipping the client and the loopback makes
// set-up several times faster.
func (c *coldMix) prefill() error {
	h := c.srv.Handler()
	paths := [numKinds]string{kOptimize: "/v1/optimize", kSweep: "/v1/sweep", kProject: "/v1/project",
		kSensitivity: "/v1/sensitivity", kCompare: "/v1/compare"}
	full := func() bool {
		st := c.srv.Snapshot().Cache
		return st.Entries == st.Capacity && st.StaleEntries == st.Capacity
	}
	limit := int64(maxPrefill * c.srv.Snapshot().Cache.Capacity)
	var next atomic.Int64
	var stop atomic.Bool
	errs := make([]error, c.workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(errp *error) {
			defer wg.Done()
			for n := 1; !stop.Load(); n++ {
				i := next.Add(1) - 1
				if i >= limit {
					return
				}
				op := coldOp(c.seed, prefillOffset+i)
				if op.kind == kFrontier {
					continue // streams are never cached
				}
				body, err := json.Marshal(op.req)
				if err != nil {
					*errp = err
					stop.Store(true)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, paths[op.kind], bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					*errp = fmt.Errorf("pre-fill op %d (%s): status %d: %s", i, op.kind, rec.Code, rec.Body.Bytes())
					stop.Store(true)
					return
				}
				if n%64 == 0 && full() {
					stop.Store(true)
				}
			}
		}(&errs[w])
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if !full() {
		st := c.srv.Snapshot().Cache
		return fmt.Errorf("pre-fill left the cache at %d live, %d stale of %d", st.Entries, st.StaleEntries, st.Capacity)
	}
	return nil
}

func (c *coldMix) op(ctx context.Context, i int64) bool {
	return c.report(i, c.call(ctx, i, coldOp(c.seed, i)))
}

// keep stores the body for drain. A body the store has no room for,
// which the generated requests never produce, is checked at once.
func (c *coldMix) keep(ctx context.Context, i int64) (ok, full bool) {
	body := stateOf(ctx).body.Bytes()
	c.mu.Lock()
	if c.kept == maxKept || c.used+len(body) > bodyBytes {
		c.mu.Unlock()
		return c.checkBody(context.Background(), i, body), true
	}
	k := &keptOps[c.kept]
	k.i, k.off, k.end = i, c.used, c.used+copy(keptBodies[c.used:], body)
	c.kept, c.used = c.kept+1, k.end
	full = c.kept > maxKept-keepSlack || c.used > bodyBytes-keepSlack*bodySlack
	c.mu.Unlock()
	return true, full
}

// drain checks the stored bodies, spread over workers goroutines.
func (c *coldMix) drain(ctx context.Context, workers int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < c.kept; j += workers {
				k := keptOps[j]
				if !c.checkBody(ctx, k.i, keptBodies[k.off:k.end]) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	c.kept, c.used = 0, 0
	return failed.Load()
}

// checkBody strictly decodes op i's body and, if the op is in the
// seeded sample, checks it field by field against the library.
func (c *coldMix) checkBody(ctx context.Context, i int64, body []byte) bool {
	op := coldOp(c.seed, i)
	resp, err := decodeResponse(op.kind, body)
	if err == nil && sampled(c.seed, i) {
		c.sampled.Add(1)
		err = checkOne(ctx, op, resp)
	}
	return c.report(i, err)
}

// report prints the first few failed ops and returns err == nil.
func (c *coldMix) report(i int64, err error) bool {
	if err != nil && c.reported.Add(1) <= 3 {
		op := coldOp(c.seed, i)
		fmt.Fprintf(stderr, "cold-mix op %d (%s %+v): %v\n", i, op.kind, op.req, err)
	}
	return err == nil
}

func checkOne(ctx context.Context, op genOp, resp any) error {
	switch req := op.req.(type) {
	case server.OptimizeRequest:
		return checkOptimize(req, resp.(*server.OptimizeResponse))
	case server.SweepRequest:
		return checkSweep(req, resp.(*server.SweepResponse))
	case server.ProjectRequest:
		return checkProject(ctx, req, resp.(*server.ProjectResponse))
	case server.SensitivityRequest:
		return checkSensitivity(ctx, req, resp.(*server.SensitivityResponse))
	case server.CompareRequest:
		return checkCompare(ctx, req, resp.(*server.CompareResponse))
	case server.FrontierRequest:
		return checkFrontier(ctx, req, resp.(*frontierResult))
	}
	return fmt.Errorf("no check for %T", op.req)
}

// replayOps is how many leading ops of the timed stream the traced run
// replays straight into the library.
const replayOps = 2000

// layers adds the model-side split to the serving metrics: the timed
// stream's own inputs, replayed into the library functions the ops
// wrap, with the server's worker count.
func (c *coldMix) layers(m map[string]float64, ph *phase) {
	c.httpRig.layers(m, ph)
	m["servecache.entries_setup"] = float64(c.setupN)
	ctx := context.Background()
	workers := c.srv.Config().Workers
	var opt, proj, mc, cmp spanTotal
	timeIt := func(t *spanTotal, fn func() error) {
		start := time.Now()
		if err := fn(); err == nil {
			t.sum += time.Since(start)
			t.n++
		}
	}
	for i := int64(0); i < replayOps; i++ {
		switch req := coldOp(c.seed, i).req.(type) {
		case server.OptimizeRequest:
			timeIt(&opt, func() error { _, _, err := refOptimize(req); return err })
		case server.ProjectRequest:
			timeIt(&proj, func() error { _, err := refProject(ctx, req, workers); return err })
		case server.SensitivityRequest:
			timeIt(&mc, func() error { _, err := refMonteCarlo(ctx, req, workers); return err })
		case server.CompareRequest:
			for _, p := range req.Pairs {
				timeIt(&cmp, func() error { _, _, err := refCompare(ctx, req.Workload, req.F, p, workers); return err })
			}
		}
	}
	m["model.optimize_us"] = opt.mean()
	m["project.project_us"] = proj.mean()
	m["sensitivity.montecarlo_us"] = mc.mean()
	m["scenario.compare_us"] = cmp.mean()
}

// decodeResponse strictly decodes a body into its kind's typed
// response: unknown fields and trailing data are errors, and a frontier
// stream must be one header, one row per roadmap node, one trailer.
func decodeResponse(k opKind, body []byte) (any, error) {
	var v any
	switch k {
	case kOptimize:
		v = new(server.OptimizeResponse)
	case kSweep:
		v = new(server.SweepResponse)
	case kProject:
		v = new(server.ProjectResponse)
	case kScenario:
		v = new(server.ScenarioResponse)
	case kSensitivity:
		v = new(server.SensitivityResponse)
	case kCompare:
		v = new(server.CompareResponse)
	case kFrontier:
		return decodeFrontier(body)
	}
	return v, decodeStrict(body, v)
}

func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the response")
	}
	return nil
}

func decodeFrontier(body []byte) (*frontierResult, error) {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("frontier stream has %d lines", len(lines))
	}
	fr := &frontierResult{rows: make([]server.FrontierRowJSON, len(lines)-2)}
	if err := decodeStrict(lines[0], &fr.header); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	for i, l := range lines[1 : len(lines)-1] {
		if err := decodeStrict(l, &fr.rows[i]); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	if err := decodeStrict(lines[len(lines)-1], &fr.trailer); err != nil {
		return nil, fmt.Errorf("trailer: %w", err)
	}
	if len(fr.rows) != len(fr.header.Nodes) || fr.trailer.Nodes != len(fr.rows) {
		return nil, fmt.Errorf("frontier stream has %d rows for %d nodes (trailer %d)", len(fr.rows), len(fr.header.Nodes), fr.trailer.Nodes)
	}
	return fr, nil
}

// ---- paper-repro ----

// paperRepro regenerates the paper once per op, with no serving layer.
type paperRepro struct {
	tr *tracer
}

func setupPaperRepro(_ uint64, _ int, traced bool) (instance, error) {
	p := &paperRepro{}
	if traced {
		p.tr = newTracer()
	}
	if err := reproduce(context.Background(), plainStep); err != nil {
		return nil, err
	}
	runtime.GC()
	return p, nil
}

func plainStep(_ string, fn func() error) error { return fn() }

func (p *paperRepro) op(ctx context.Context, i int64) bool {
	step := plainStep
	if p.tr.active() {
		step = func(name string, fn func() error) error {
			start := p.tr.now()
			err := fn()
			p.tr.add(span{id: i, name: name, start: start, end: p.tr.now()})
			return err
		}
	}
	if err := reproduce(ctx, step); err != nil {
		fmt.Fprintf(stderr, "paper-repro op %d: %v\n", i, err)
		return false
	}
	return true
}

// keep has nothing left to check: reproduce checks Table 5 and the
// conclusions as it builds them.
func (p *paperRepro) keep(context.Context, int64) (ok, full bool) { return true, false }

func (p *paperRepro) counters() counters { return counters{} }

func (p *paperRepro) drain(context.Context, int) int64 { return 0 }

func (p *paperRepro) setTrace(on bool) { p.tr.on.Store(on) }

func (p *paperRepro) spans() *tracer { return p.tr }

// layers reports each builder's mean time per reproduction, in ms.
func (p *paperRepro) layers(m map[string]float64, _ *phase) {
	tot := p.tr.totals()
	for _, name := range reproSteps {
		m[name] = tot[name].mean() / 1000
	}
}

func (p *paperRepro) close() error { return nil }
