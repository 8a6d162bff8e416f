package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/calcm/heterosim/internal/client"
	"github.com/calcm/heterosim/internal/servecache"
	"github.com/calcm/heterosim/internal/server"
	"github.com/calcm/heterosim/internal/telemetry"
)

// httpRig is the serving stack the HTTP workloads drive: server.New at
// its default config on a 127.0.0.1 listener in this process, and one
// internal/client on one keep-alive transport. An untraced rig serves
// through Server.Serve, exactly as heterosimd does; a traced one serves
// the public Handler() through a timing wrapper instead.
type httpRig struct {
	srv       *server.Server
	cli       *client.Client
	tr        *tracer // nil when untraced
	transport *http.Transport
	attempts  atomic.Int64

	stop func() error
}

func startRig(workers int, traced bool) (*httpRig, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &httpRig{srv: srv}
	done := make(chan error, 1)
	if traced {
		r.tr = newTracer()
		hs := &http.Server{Handler: tracedHandler(r.tr, srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
		go func() { done <- hs.Serve(ln) }()
		r.stop = func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			err := hs.Shutdown(ctx)
			if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
				return serr
			}
			return err
		}
	} else {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { done <- srv.Serve(ctx, ln) }()
		r.stop = func() error {
			cancel()
			return <-done
		}
	}
	r.transport = &http.Transport{MaxIdleConns: 2 * workers, MaxIdleConnsPerHost: 2 * workers, IdleConnTimeout: time.Minute}
	r.cli, err = client.New(client.Config{
		BaseURL:    "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: &captureTransport{base: r.transport, tr: r.tr}},
		OnAttempt:  func(context.Context, client.Attempt) { r.attempts.Add(1) },
	})
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close stops the server, waits for it, and drops idle connections.
func (r *httpRig) close() error {
	r.transport.CloseIdleConnections()
	return r.stop()
}

// call sends one generated request through the typed client method of
// its kind. The client decodes the response as usual; the raw body is
// left in the worker's opState for the workload's output check.
func (r *httpRig) call(ctx context.Context, i int64, op genOp) error {
	if r.tr.active() {
		ctx = telemetry.WithRequestID(ctx, requestID(i))
		stateOf(ctx).id = i
		start := r.tr.now()
		defer func() { r.tr.add(span{id: i, name: spanCall, start: start, end: r.tr.now()}) }()
	}
	var err error
	switch req := op.req.(type) {
	case server.OptimizeRequest:
		_, err = r.cli.Optimize(ctx, req)
	case server.SweepRequest:
		_, err = r.cli.Sweep(ctx, req)
	case server.ProjectRequest:
		_, err = r.cli.Project(ctx, req)
	case server.ScenarioRequest:
		_, err = r.cli.Scenario(ctx, req)
	case server.SensitivityRequest:
		_, err = r.cli.Sensitivity(ctx, req)
	case server.CompareRequest:
		_, err = r.cli.Compare(ctx, req)
	case server.FrontierRequest:
		_, err = r.cli.FrontierStream(ctx, req, func(server.FrontierRowJSON) error { return nil })
	default:
		err = fmt.Errorf("perfbench: no client method for %T", op.req)
	}
	return err
}

func (r *httpRig) setTrace(on bool) { r.tr.on.Store(on) }

func (r *httpRig) spans() *tracer { return r.tr }

// counters snapshots what the traced run reads from the program: the
// stage histograms, the cache counters, and the client's attempts.
func (r *httpRig) counters() counters {
	c := counters{stages: make(map[string]spanTotal), cache: r.srv.Snapshot().Cache, attempts: r.attempts.Load()}
	for _, fam := range r.srv.Telemetry().Snapshot() {
		if fam.Name != "stage_duration_seconds" {
			continue
		}
		for _, s := range fam.Series {
			c.stages[s.Label] = spanTotal{sum: s.Hist.Sum, n: s.Hist.Count}
		}
	}
	return c
}

// counters is one snapshot of the program's own instruments.
type counters struct {
	stages   map[string]spanTotal
	cache    servecache.Stats
	attempts int64
}

// stageDelta is one stage's observations between two snapshots.
func stageDelta(a, b counters, stage string) spanTotal {
	x, y := a.stages[stage], b.stages[stage]
	return spanTotal{sum: y.sum - x.sum, n: y.n - x.n}
}

// serverStages are the stages the handler's time divides into; the
// sweep stage runs inside evaluate and is not among them.
var serverStages = []string{"decode", "cache", "gate", "evaluate", "encode"}

// layers fills the serving-side per-layer metrics of a traced phase.
func (r *httpRig) layers(m map[string]float64, ph *phase) {
	tot := r.tr.totals()
	call, rt, h := tot[spanCall], tot[spanRoundTrip], tot[spanHandler]
	ops := float64(ph.ops)
	m["client.call_us"] = call.mean()
	m["client.self_us"] = us(call.sum-rt.sum) / ops
	m["client.retries_per_op"] = float64(ph.c1.attempts-ph.c0.attempts-ph.ops) / ops
	m["net.loopback_us"] = us(rt.sum-h.sum) / ops
	m["server.handler_us"] = h.mean()
	self := h.sum
	for _, s := range serverStages {
		self -= stageDelta(ph.c0, ph.c1, s).sum
	}
	m["server.self_us"] = us(self) / ops
	m["server.decode_us"] = stageDelta(ph.c0, ph.c1, "decode").mean()
	m["server.encode_us"] = stageDelta(ph.c0, ph.c1, "encode").mean()
	m["server.gate_us"] = stageDelta(ph.c0, ph.c1, "gate").mean()
	m["servecache.lookup_us"] = stageDelta(ph.c0, ph.c1, "cache").mean()
	m["engine.evaluate_us"] = stageDelta(ph.c0, ph.c1, "evaluate").mean()
	m["sweep.grid_us"] = stageDelta(ph.c0, ph.c1, "sweep").mean()
	c0, c1 := ph.c0.cache, ph.c1.cache
	hits, coalesced := c1.Hits-c0.Hits, c1.Coalesced-c0.Coalesced
	if lookups := float64(hits + c1.Misses - c0.Misses + coalesced); lookups > 0 {
		m["servecache.hit_ratio"] = float64(hits) / lookups
		m["servecache.evictions_per_op"] = float64(c1.Evictions-c0.Evictions) / lookups
		m["servecache.coalesced_per_op"] = float64(coalesced) / lookups
	}
	m["servecache.entries"] = float64(c1.Entries)
}

// opState is one closed-loop worker's scratch: the raw body of its
// latest response (captured on the wire for the output checks) and, in
// a traced run, the op index its spans carry.
type opState struct {
	body    bytes.Buffer
	id      int64
	capture captureBody
}

type stateKey struct{}

func stateOf(ctx context.Context) *opState {
	st, _ := ctx.Value(stateKey{}).(*opState)
	return st
}

// captureTransport wraps the client's transport: it tees each response
// body into the caller's opState, and in a traced run records the round
// trip from request start to the end of the body. The client decodes a
// buffered response after reading it to the end and closes the body
// after decoding, so the span ends at the read that returns io.EOF,
// leaving the decode in client.self_us; Close ends it only for a body
// not read to the end.
type captureTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (c *captureTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	st := stateOf(req.Context())
	traced := st != nil && c.tr.active()
	var start int64
	if traced {
		start = c.tr.now()
	}
	res, err := c.base.RoundTrip(req)
	if st == nil {
		return res, err
	}
	if err != nil {
		if traced {
			c.tr.add(span{id: st.id, name: spanRoundTrip, start: start, end: c.tr.now()})
		}
		return res, err
	}
	st.body.Reset()
	st.capture = captureBody{rc: res.Body, st: st, start: start}
	if traced {
		st.capture.tr = c.tr
	}
	res.Body = &st.capture
	return res, nil
}

// captureBody is the tee. One lives in each opState, so capturing
// allocates nothing per request.
type captureBody struct {
	rc    io.ReadCloser
	st    *opState
	tr    *tracer
	start int64
}

func (b *captureBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.st.body.Write(p[:n])
	if err == io.EOF {
		b.end()
	}
	return n, err
}

func (b *captureBody) Close() error {
	err := b.rc.Close()
	b.end()
	return err
}

// end records the round-trip span, once.
func (b *captureBody) end() {
	if b.tr != nil {
		b.tr.add(span{id: b.st.id, name: spanRoundTrip, start: b.start, end: b.tr.now()})
		b.tr = nil
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
