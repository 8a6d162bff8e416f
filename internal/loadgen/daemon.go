package loadgen

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/calcm/heterosim/internal/faultinject"
	"github.com/calcm/heterosim/internal/server"
)

// ServerConfig is one serving-layer configuration under test: the knobs
// that govern capacity. Zero fields take internal/server's production
// defaults, so the zero value (plus a name) is the baseline deployment.
type ServerConfig struct {
	Name           string
	Workers        int
	CacheEntries   int
	MaxInflight    int
	MaxQueue       int
	QueueTimeout   time.Duration
	RequestTimeout time.Duration
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
		QueueTimeout:   cfg.QueueTimeout,
		RequestTimeout: cfg.RequestTimeout,
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
