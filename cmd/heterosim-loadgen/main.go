// Command heterosim-loadgen is the load-generation harness for the
// serving stack. It drives declarative traffic scenarios — endpoint mix,
// open-loop Poisson or closed-loop arrivals, a target cache-hit ratio,
// fault and deadline distributions — through internal/client against
// either a live daemon or an in-process one, with every request stream a
// deterministic function of the scenario seed.
//
// Usage:
//
//	heterosim-loadgen scenarios [-json]
//	heterosim-loadgen run [-name SCENARIO | -config FILE]
//	                      [-addr URL] [-csv FILE] [-summary FILE]
//	                      [-seed N] [-requests N] [-duration D]
//	                      [-deterministic] [server flags]
//	heterosim-loadgen check -summary FILE
//
// run without -addr boots a fresh in-process daemon (configured by the
// server flags) on an ephemeral port, so a scenario is reproducible
// without any standing infrastructure; with -addr it aims the same
// traffic at a live daemon. -deterministic swaps the wall clock for the
// logical clock: with a sequential scenario (closed loop, concurrency
// 1) the per-request CSV is then byte-identical across invocations,
// which is what the CI smoke diffs.
//
// check re-parses a summary strictly against the schema and holds it to
// the harness invariants: traffic moved, every request accounted for, no
// unexpected failures. CI gates on it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/calcm/heterosim/internal/baseurl"
	"github.com/calcm/heterosim/internal/loadgen"
	"github.com/calcm/heterosim/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "heterosim-loadgen:", err)
		os.Exit(1)
	}
}

// run dispatches subcommands; out receives everything the user asked to
// see (tests capture it).
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("a subcommand is required")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "scenarios":
		return cmdScenarios(rest, out)
	case "run":
		return cmdRun(rest, out)
	case "check":
		return cmdCheck(rest, out)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `heterosim-loadgen — load-generation harness

Subcommands:
  scenarios  list the shipped traffic scenarios
  run        run one scenario against a live or in-process daemon
  check      validate a summary against schema and invariants

run flags:
  -name          shipped scenario to run (see scenarios)
  -config        scenario JSON file (strict schema; overrides -name)
  -addr          base URL of a live daemon, or a comma-separated list of
                 cluster members for pick-first failover
                 (default: boot one in-process)
  -csv           write the per-request CSV time series here ("-" = stdout)
  -summary       write the run summary JSON here ("-" = stdout)
  -seed          override the scenario seed
  -requests      override the scenario request budget
  -duration      override the scenario duration bound
  -deterministic drive the run on the logical clock (virtual time)

run server flags (in-process daemon only):
  -server-name -workers -cache-entries -max-inflight -max-queue
  -queue-timeout -request-timeout

check flags:
  -summary   summary JSON file to validate
`)
}

func cmdScenarios(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	jsonOut := fs.Bool("json", false, "emit the full scenario definitions as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var scs []loadgen.Scenario
	for _, name := range loadgen.BuiltinNames() {
		sc, _ := loadgen.Builtin(name)
		scs = append(scs, sc)
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(scs)
	}
	fmt.Fprintf(out, "%-14s %-8s %9s %12s %9s %7s  %s\n",
		"name", "arrival", "requests", "rate/conc", "hitRatio", "faults", "mix")
	for _, sc := range scs {
		load := fmt.Sprintf("conc=%d", sc.Arrival.Concurrency)
		if sc.Arrival.Process == "poisson" {
			load = fmt.Sprintf("%.0fHz", sc.Arrival.RateHz)
		}
		faults := "no"
		if sc.Faults != "" {
			faults = "yes"
		}
		fmt.Fprintf(out, "%-14s %-8s %9d %12s %9.2f %7s  %d endpoints\n",
			sc.Name, sc.Arrival.Process, sc.Requests, load, sc.HitRatio, faults, len(sc.Mix))
	}
	return nil
}

// serverFlags registers the in-process daemon knobs and returns a
// loader that assembles the ServerConfig after parsing.
func serverFlags(fs *flag.FlagSet) func() loadgen.ServerConfig {
	name := fs.String("server-name", "baseline", "server configuration label")
	workers := fs.Int("workers", 0, "evaluation worker pool (0 = server default)")
	cacheEntries := fs.Int("cache-entries", 0, "result cache budget (0 = server default)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent evaluations admitted (0 = server default)")
	maxQueue := fs.Int("max-queue", 0, "queued requests before 429 (0 = server default)")
	queueTimeout := fs.Duration("queue-timeout", 0, "queued-request wait before 503 (0 = server default)")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request deadline before 504 (0 = server default)")
	return func() loadgen.ServerConfig {
		return loadgen.ServerConfig{
			Name:           *name,
			Workers:        *workers,
			CacheEntries:   *cacheEntries,
			MaxInflight:    *maxInflight,
			MaxQueue:       *maxQueue,
			QueueTimeout:   *queueTimeout,
			RequestTimeout: *requestTimeout,
		}
	}
}

// loadScenario resolves -name/-config plus the override flags.
func loadScenario(name, config string, seed int64, requests int, duration time.Duration) (loadgen.Scenario, error) {
	var sc loadgen.Scenario
	switch {
	case config != "":
		data, err := os.ReadFile(config)
		if err != nil {
			return sc, err
		}
		sc, err = loadgen.ParseScenario(data)
		if err != nil {
			return sc, fmt.Errorf("%s: %w", config, err)
		}
	case name != "":
		var ok bool
		sc, ok = loadgen.Builtin(name)
		if !ok {
			return sc, fmt.Errorf("unknown scenario %q (try: heterosim-loadgen scenarios)", name)
		}
	default:
		return sc, fmt.Errorf("run needs -name or -config")
	}
	if seed != 0 {
		sc.Seed = seed
	}
	if requests != 0 {
		sc.Requests = requests
	}
	if duration != 0 {
		sc.Duration = loadgen.Duration(duration)
	}
	return sc, sc.Validate()
}

// openSink opens path for writing; "-" is the shared output stream.
func openSink(path string, out io.Writer) (io.Writer, func() error, error) {
	if path == "-" {
		return out, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	name := fs.String("name", "", "shipped scenario name")
	config := fs.String("config", "", "scenario JSON file")
	addr := fs.String("addr", "", "live daemon base URL, comma-separated for a cluster (empty = in-process)")
	csvPath := fs.String("csv", "", "per-request CSV destination (\"-\" = stdout)")
	summaryPath := fs.String("summary", "", "summary JSON destination (\"-\" = stdout)")
	seed := fs.Int64("seed", 0, "override the scenario seed")
	requests := fs.Int("requests", 0, "override the scenario request budget")
	duration := fs.Duration("duration", 0, "override the scenario duration bound")
	deterministic := fs.Bool("deterministic", false, "drive the run on the logical clock")
	server := serverFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := loadScenario(*name, *config, *seed, *requests, *duration)
	if err != nil {
		return err
	}

	cfg := loadgen.RunConfig{}
	if *deterministic {
		cfg.Clock = loadgen.NewLogicalClock(time.Unix(0, 0), time.Millisecond)
	}
	if *csvPath != "" {
		w, closeCSV, err := openSink(*csvPath, out)
		if err != nil {
			return err
		}
		defer closeCSV()
		cfg.Recorders = append(cfg.Recorders, loadgen.NewCSVRecorder(w))
	}

	srvCfg := server()
	if *addr != "" {
		// One shared normalizer (internal/baseurl) handles bare
		// host:port, trailing slashes, and comma-separated cluster
		// lists; a list drives the client's pick-first failover.
		urls, err := baseurl.NormalizeList(*addr)
		if err != nil {
			return fmt.Errorf("-addr: %w", err)
		}
		if len(urls) == 1 {
			cfg.BaseURL = urls[0]
		} else {
			cfg.BaseURLs = urls
		}
		cfg.ServerName = "live"
	} else {
		baseURL, stop, err := loadgen.StartInProcess(sc, srvCfg)
		if err != nil {
			return err
		}
		defer stop()
		cfg.BaseURL = baseURL
		cfg.ServerName = srvCfg.Name
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	sum, err := loadgen.Run(ctx, sc, cfg)
	if err != nil {
		return err
	}
	if *summaryPath != "" {
		w, closeSum, err := openSink(*summaryPath, out)
		if err != nil {
			return err
		}
		defer closeSum()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return err
		}
	}
	if *summaryPath != "-" && *csvPath != "-" {
		loadgen.FormatSummaries(out, []loadgen.Summary{sum})
	}
	return nil
}

func cmdCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	summaryPath := fs.String("summary", "", "summary JSON file to validate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *summaryPath == "" {
		return fmt.Errorf("check needs -summary")
	}
	data, err := os.ReadFile(*summaryPath)
	if err != nil {
		return err
	}
	var sum loadgen.Summary
	if err := server.DecodeStrict(data, &sum); err != nil {
		return fmt.Errorf("%s: schema: %w", *summaryPath, err)
	}
	if err := sum.Check(); err != nil {
		return fmt.Errorf("%s: %w", *summaryPath, err)
	}
	fmt.Fprintf(out, "%s: ok (%s x %s, %d requests, %.1f rps)\n",
		*summaryPath, sum.Scenario, sum.Server, sum.Requests, sum.ThroughputRPS)
	return nil
}
