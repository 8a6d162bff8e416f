package loadgen

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/calcm/heterosim/internal/faultinject"
	"github.com/calcm/heterosim/internal/server"
)

// ServerConfig is one serving-layer configuration under test: the knobs
// that govern capacity. Zero fields take internal/server's production
// defaults, so the zero value (plus a name) is the baseline deployment.
type ServerConfig struct {
	Name           string   `json:"name"`
	Workers        int      `json:"workers,omitempty"`
	CacheEntries   int      `json:"cacheEntries,omitempty"`
	MaxInflight    int      `json:"maxInflight,omitempty"`
	MaxQueue       int      `json:"maxQueue,omitempty"`
	QueueTimeout   Duration `json:"queueTimeout,omitempty"`
	RequestTimeout Duration `json:"requestTimeout,omitempty"`
}

// Matrix crosses traffic scenarios with server configurations: every
// (scenario, server) cell runs against a fresh in-process daemon, so
// cells never contaminate each other's caches or counters.
type Matrix struct {
	Scenarios []Scenario     `json:"scenarios"`
	Servers   []ServerConfig `json:"servers"`
}

// MatrixOptions parameterize RunMatrix.
type MatrixOptions struct {
	// Clock drives every cell (default WallClock).
	Clock Clock

	// CSVDir, when set, receives one per-request CSV per cell, named
	// <scenario>__<server>.csv.
	CSVDir string

	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

// buildServerConfig maps one harness ServerConfig (plus the scenario's
// fault spec) to the serving layer's config.
func buildServerConfig(sc Scenario, cfg ServerConfig) (server.Config, error) {
	srvCfg := server.Config{
		Addr:           "127.0.0.1:0",
		Workers:        cfg.Workers,
		CacheEntries:   cfg.CacheEntries,
		MaxInflight:    cfg.MaxInflight,
		MaxQueue:       cfg.MaxQueue,
		QueueTimeout:   time.Duration(cfg.QueueTimeout),
		RequestTimeout: time.Duration(cfg.RequestTimeout),
	}
	if sc.Faults != "" {
		fcfg, err := faultinject.Parse(sc.Faults)
		if err != nil {
			return server.Config{}, err
		}
		inj, err := faultinject.New(fcfg)
		if err != nil {
			return server.Config{}, err
		}
		srvCfg.Middleware = inj.Wrap
	}
	return srvCfg, nil
}

// StartInProcess boots a fresh daemon for one server configuration on
// an ephemeral localhost port, splicing in the scenario's fault
// injector when one is specified. stop shuts it down and blocks until
// the listener is released.
func StartInProcess(sc Scenario, cfg ServerConfig) (baseURL string, stop func(), err error) {
	srvCfg, err := buildServerConfig(sc, cfg)
	if err != nil {
		return "", nil, err
	}
	srv, err := server.New(srvCfg)
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, ready) }()
	select {
	case addr := <-ready:
		baseURL = "http://" + addr.String()
	case err := <-done:
		cancel()
		return "", nil, fmt.Errorf("loadgen: in-process daemon failed to start: %w", err)
	}
	stop = func() {
		cancel()
		<-done
	}
	return baseURL, stop, nil
}

// StartCluster boots n peer-aware daemons of one configuration, each
// knowing the full membership: listeners are bound first so every
// member's base URL is known before any server starts, then each
// daemon serves on its pre-bound port with -peers-equivalent wiring.
// Every member gets its own fault injector when the scenario asks for
// faults. stopOne(i) kills a single member (chaos tests); stop shuts
// the rest down and blocks until every listener is released.
func StartCluster(sc Scenario, cfg ServerConfig, n int) (baseURLs []string, stopOne func(i int), stop func(), err error) {
	if n < 1 {
		return nil, nil, nil, fmt.Errorf("loadgen: cluster size %d, want >= 1", n)
	}
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	closeAll := func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	cancels := make([]context.CancelFunc, n)
	dones := make([]chan error, n)
	for i := range lns {
		srvCfg, err := buildServerConfig(sc, cfg)
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		srvCfg.Peers = urls
		srvCfg.PeerSelf = urls[i]
		srv, err := server.New(srvCfg)
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		cancels[i], dones[i] = cancel, done
		go func(ln net.Listener) { done <- srv.Serve(ctx, ln) }(lns[i])
	}
	var mu sync.Mutex
	stopped := make([]bool, n)
	stopOne = func(i int) {
		mu.Lock()
		dead := stopped[i]
		stopped[i] = true
		mu.Unlock()
		if dead {
			return
		}
		cancels[i]()
		<-dones[i]
	}
	stop = func() {
		for i := range cancels {
			stopOne(i)
		}
	}
	return urls, stopOne, stop, nil
}

// RunMatrix executes every (scenario, server) cell and returns the
// summaries in scenario-major order.
func RunMatrix(ctx context.Context, m Matrix, opts MatrixOptions) ([]Summary, error) {
	if len(m.Scenarios) == 0 || len(m.Servers) == 0 {
		return nil, fmt.Errorf("loadgen: matrix needs at least one scenario and one server config")
	}
	for i := range m.Scenarios {
		if err := m.Scenarios[i].Validate(); err != nil {
			return nil, err
		}
	}
	var sums []Summary
	for _, sc := range m.Scenarios {
		for _, srv := range m.Servers {
			sum, err := runCell(ctx, sc, srv, opts)
			if err != nil {
				return sums, fmt.Errorf("loadgen: cell (%s, %s): %w", sc.Name, srv.Name, err)
			}
			sums = append(sums, sum)
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "%-14s x %-12s  %6d req  %8.1f rps  p99 %6dus  shed %.1f%%\n",
					sc.Name, srv.Name, sum.Requests, sum.ThroughputRPS,
					sum.LatencyP99US, sum.ShedRate*100)
			}
		}
	}
	return sums, nil
}

// runCell runs one (scenario, server) pair against a fresh daemon.
func runCell(ctx context.Context, sc Scenario, srv ServerConfig, opts MatrixOptions) (Summary, error) {
	baseURL, stop, err := StartInProcess(sc, srv)
	if err != nil {
		return Summary{}, err
	}
	defer stop()
	cfg := RunConfig{BaseURL: baseURL, Clock: opts.Clock, ServerName: srv.Name}
	var csv *os.File
	if opts.CSVDir != "" {
		path := filepath.Join(opts.CSVDir, sc.Name+"__"+srv.Name+".csv")
		csv, err = os.Create(path)
		if err != nil {
			return Summary{}, err
		}
		defer csv.Close()
		cfg.Recorders = append(cfg.Recorders, NewCSVRecorder(csv))
	}
	return Run(ctx, sc, cfg)
}

// BenchDoc is the BENCH_8.json document: the matrix that ran and the
// per-cell summaries. Every future serving-capacity PR lands against
// these numbers.
type BenchDoc struct {
	Note      string         `json:"note"`
	Scenarios []Scenario     `json:"scenarios"`
	Servers   []ServerConfig `json:"servers"`
	Results   []Summary      `json:"results"`
}

// NewBenchDoc assembles the document for one matrix run.
func NewBenchDoc(m Matrix, sums []Summary) BenchDoc {
	return BenchDoc{
		Note: "Scenario-matrix load measurements: each cell drives one traffic " +
			"scenario through internal/client against a fresh in-process daemon " +
			"with one server configuration. Latencies are quantiles over " +
			"successful requests. Regenerate: " +
			"heterosim-loadgen matrix -out BENCH_8.json",
		Scenarios: m.Scenarios,
		Servers:   m.Servers,
		Results:   sums,
	}
}

// mix returns a copy of the standard all-endpoint weighting, biased
// toward the cheap hot-path operations the way interactive frontends
// are.
func mixAll() map[string]float64 {
	return map[string]float64{
		"optimize": 6, "sweep": 3, "project": 1,
		"scenario": 0.5, "sensitivity": 1, "ablation": 0.5,
		"compare": 0.5, "frontier": 0.5, "models": 0.5,
	}
}

// builtins are the named scenarios shipped with the harness.
// "smoke" is the deterministic tier-1 scenario: sequential, so that
// under a LogicalClock two runs produce byte-identical CSV output.
func builtins() []Scenario {
	return []Scenario{
		{
			Name: "smoke", Seed: 1, Requests: 60,
			Arrival:  ArrivalSpec{Process: "closed", Concurrency: 1},
			Mix:      mixAll(),
			HitRatio: 0.5, KeySpace: 8,
		},
		{
			Name: "steady-mixed", Seed: 1, Requests: 400,
			Arrival:  ArrivalSpec{Process: "closed", Concurrency: 8},
			Mix:      mixAll(),
			HitRatio: 0.6, KeySpace: 32,
		},
		{
			// The overload scenario: offered load well past capacity —
			// one in five requests is an expensive Monte Carlo
			// evaluation, arrivals fire regardless of server latency —
			// so the admission gate's shed behavior is measured, not
			// hypothetical.
			Name: "burst-open", Seed: 2, Requests: 400,
			Arrival:  ArrivalSpec{Process: "poisson", RateHz: 2000},
			Mix:      map[string]float64{"optimize": 6, "sweep": 2, "sensitivity": 2},
			HitRatio: 0.3, KeySpace: 16,
			Samples: 20_000,
		},
		{
			Name: "chaos-faults", Seed: 3, Requests: 300,
			Arrival:  ArrivalSpec{Process: "closed", Concurrency: 8},
			Mix:      map[string]float64{"optimize": 5, "sweep": 2, "sensitivity": 1},
			HitRatio: 0.5, KeySpace: 16,
			Faults:   "seed=7,latency=0.05:5ms,error=0.05",
			Deadline: DeadlineSpec{Dist: "uniform", Min: Duration(5 * time.Millisecond), Max: Duration(50 * time.Millisecond)},
			Retries:  3,
		},
	}
}

// BuiltinNames lists the shipped scenarios.
func BuiltinNames() []string {
	var names []string
	for _, sc := range builtins() {
		names = append(names, sc.Name)
	}
	return names
}

// Builtin returns a shipped scenario by name.
func Builtin(name string) (Scenario, bool) {
	for _, sc := range builtins() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// DefaultMatrix is the BENCH_8 measurement matrix: the three
// measurement scenarios against the baseline deployment and a
// deliberately constrained one (small cache, two evaluation slots, a
// short queue), so shed and deadline-miss behavior is exercised, not
// just asserted about.
func DefaultMatrix() Matrix {
	return Matrix{
		Scenarios: []Scenario{
			mustBuiltin("steady-mixed"),
			mustBuiltin("burst-open"),
			mustBuiltin("chaos-faults"),
		},
		Servers: []ServerConfig{
			{Name: "baseline"},
			{
				Name: "constrained", Workers: 2, CacheEntries: 64,
				MaxInflight: 2, MaxQueue: 2,
				QueueTimeout:   Duration(50 * time.Millisecond),
				RequestTimeout: Duration(250 * time.Millisecond),
			},
		},
	}
}

func mustBuiltin(name string) Scenario {
	sc, ok := Builtin(name)
	if !ok {
		panic("loadgen: missing builtin " + name)
	}
	return sc
}
