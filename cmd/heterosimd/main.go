// Command heterosimd is the long-running model-evaluation service: the
// Chung et al. (MICRO 2010) analytical engine behind JSON-over-HTTP
// endpoints, with a sharded result cache, request coalescing, and
// admission control so overload degrades to 429/503 instead of
// collapsing.
//
// Usage:
//
//	heterosimd serve [-addr :8080] [-workers N] [-cache-entries N]
//	                 [-max-inflight N] [-max-queue N] [-queue-timeout D]
//	                 [-request-timeout D] [-pprof-addr ADDR]
//	                 [-log-format text|json]
//
//	heterosimd version
//
// Every POST /v1 endpoint — optimize, sweep, project, scenario,
// sensitivity, ablation, compare — is one entry in internal/server's
// route table and shares a single serving pipeline: strict decode,
// canonical cache key, coalescing, admission, deadlines, telemetry.
//
// serve runs until SIGINT/SIGTERM, then drains in-flight requests. It
// logs one structured line (log/slog; text or JSON) per request with a
// request ID taken from X-Request-ID or minted, serves /metrics as both
// the JSON counter document (default) and Prometheus text exposition
// (?format=prometheus or Accept: text/plain), and — opt-in via
// -pprof-addr — exposes net/http/pprof on a separate listener that is
// never reachable through the serving address.
//
// Setting the HETEROSIMD_FAULTS environment variable (see
// internal/faultinject.Parse for the spec format) splices the chaos
// middleware in front of the serving stack — never do this in
// production; it exists so resilience drills can run against the real
// binary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/calcm/heterosim/internal/faultinject"
	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/server"
	"github.com/calcm/heterosim/internal/version"
)

// faultsEnv guards the chaos middleware: the daemon injects faults only
// when this variable is set, and logs that it is doing so.
const faultsEnv = "HETEROSIMD_FAULTS"

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "heterosimd:", err)
		os.Exit(1)
	}
}

// run dispatches subcommands. ready, if non-nil, receives the bound
// listen address (tests and scripts use it with -addr :0).
func run(args []string, ready chan<- net.Addr) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("a subcommand is required")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "serve":
		return cmdServe(rest, ready)
	case "version":
		return cmdVersion(rest)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `heterosimd — HTTP model-evaluation service for the MICRO 2010 reproduction

Subcommands:
  serve     run the service until SIGINT/SIGTERM
  version   print the build identity (module, version, Go runtime)

serve flags:
  -addr          listen address (default :8080; use :0 for an ephemeral port)
  -workers       evaluation worker pool, <= 0 means GOMAXPROCS (default 0)
  -cache-entries result cache budget; 0 keeps coalescing but disables storage (default 4096)
  -max-inflight  concurrent evaluations admitted (default 2 x GOMAXPROCS)
  -max-queue     requests queued beyond that before 429 (default = max-inflight)
  -queue-timeout queued-request wait bound before 503 (default 2s)
  -request-timeout
                 per-request deadline, queue wait plus evaluation, before
                 504 (default 30s; 0 disables)
  -pprof-addr    serve net/http/pprof on this separate listener
                 (default empty = disabled; never exposed on -addr)
  -log-format    structured log format: text or json (default text)
  -peers         comma-separated base URLs of every cluster member,
                 this daemon included (default empty = single-node)
  -peer-self     this daemon's own base URL as it appears in -peers
                 (required with -peers)
  -peer-timeout  per-fetch bound on owner-peer requests (default 10s)
`)
}

func cmdVersion(args []string) error {
	fs := flag.NewFlagSet("version", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	jsonOut := fs.Bool("json", false, "emit JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	info := version.Get()
	info.Models = model.Names()
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		return enc.Encode(info)
	}
	fmt.Printf("%s %s (%s, %s/%s) models=%s\n", info.Module, info.Version,
		info.GoVersion, info.OS, info.Arch, strings.Join(info.Models, ","))
	return nil
}

func cmdServe(args []string, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "evaluation worker pool (<= 0 means GOMAXPROCS)")
	cacheEntries := fs.Int("cache-entries", 4096, "result cache budget (0 disables storage, keeps coalescing)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent evaluations admitted (0 = 2 x GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 0, "queued requests before 429 (0 = max-inflight)")
	queueTimeout := fs.Duration("queue-timeout", 2*time.Second, "queued-request wait before 503")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline before 504 (0 disables)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this separate listener (empty disables)")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	peers := fs.String("peers", "", "comma-separated base URLs of every cluster member, this one included (empty = single-node)")
	peerSelf := fs.String("peer-self", "", "this daemon's own base URL within -peers (required with -peers)")
	peerTimeout := fs.Duration("peer-timeout", 10*time.Second, "per-fetch bound on owner-peer requests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(*logFormat)
	if err != nil {
		return err
	}
	entries := *cacheEntries
	if entries <= 0 {
		entries = -1 // flag spelling: 0 disables storage, keeps coalescing
	}
	reqTimeout := *requestTimeout
	if reqTimeout <= 0 {
		reqTimeout = -1 // flag spelling: 0 disables the deadline
	}
	cfg := server.Config{
		Addr:           *addr,
		Workers:        par.Normalize(*workers),
		CacheEntries:   entries,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		RequestTimeout: reqTimeout,
		Logger:         logger,
	}
	if *peers != "" {
		cfg.Peers = strings.Split(*peers, ",")
		cfg.PeerSelf = *peerSelf
		cfg.PeerTimeout = *peerTimeout
	} else if *peerSelf != "" {
		return fmt.Errorf("-peer-self requires -peers")
	}
	var inj *faultinject.Injector
	if spec := os.Getenv(faultsEnv); spec != "" {
		fcfg, err := faultinject.Parse(spec)
		if err != nil {
			return fmt.Errorf("%s: %w", faultsEnv, err)
		}
		inj, err = faultinject.New(fcfg)
		if err != nil {
			return fmt.Errorf("%s: %w", faultsEnv, err)
		}
		inj.SetLogger(logger)
		cfg.Middleware = inj.Wrap
		logger.Warn("serving with injected faults", "env", faultsEnv, "spec", spec)
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		pa, perrc, err := startPprof(ctx, *pprofAddr, logger)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		logger.Info("pprof listening", "addr", pa.String())
		go func() {
			if err := <-perrc; err != nil {
				logger.Error("pprof server failed", "error", err)
			}
		}()
	}

	bound := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe(ctx, bound) }()

	select {
	case a := <-bound:
		logger.Info("listening", "version", version.Get().Version, "addr", a.String(),
			"models", strings.Join(model.Names(), ","))
		if cl := s.Cluster(); cl != nil {
			logger.Info("clustering", "self", cl.Self(), "peers", strings.Join(cl.Peers(), ","))
		}
		for _, e := range server.Endpoints() {
			logger.Info("endpoint", "route", e)
		}
		if ready != nil {
			ready <- a
		}
	case err := <-errc:
		return err // listen failed before binding
	}
	err = <-errc
	if err != nil {
		return err
	}
	if inj != nil {
		st := inj.Stats()
		logger.Info("fault injection summary",
			"requests", st.Requests, "latencies", st.Latencies,
			"errors", st.Errors, "resets", st.Resets, "truncates", st.Truncates)
	}
	logger.Info("shut down cleanly")
	return nil
}

// newLogger builds the daemon's structured logger on stderr.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// startPprof serves net/http/pprof on its own listener so profiling is
// never reachable through the public serving address. The server shuts
// down when ctx is cancelled; the returned channel reports its exit.
func startPprof(ctx context.Context, addr string, logger *slog.Logger) (net.Addr, <-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() {
		err := srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		errc <- err
	}()
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Warn("pprof shutdown", "error", err)
		}
	}()
	return ln.Addr(), errc, nil
}
