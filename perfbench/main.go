// Command perfbench is heterosim's repository benchmark. It drives one
// workload closed loop from one process for a fixed time, checks every
// output, and prints its metrics by name and unit, ending with one JSON
// line:
//
//	go run . --workload hot-hit --seed 1 --seconds 20 --trace 0
//
// from this directory, or bash perfbench/run.sh with the same flags
// from the repository root. --trace 0 prints the end-to-end metrics;
// --trace 1 runs an untraced then a traced half and prints the
// per-layer metrics, writing the spans under .bench_build/traces.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

var stderr io.Writer = os.Stderr

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median. All but the last set-up are torn down again.
const setupRepeats = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hot-hit, cold-mix or paper-repro")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload hot-hit|cold-mix|paper-repro --seed N --seconds N --trace 0|1\n")
		return 2
	}
	wl, traced := workloads[i], *trace == 1
	workers := min(runtime.NumCPU(), maxWorkers)

	var setups []float64
	var inst instance
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = start
		}
		in, err := wl.setup(*seed, workers, traced)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", wl.name, err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k == setupRepeats-1 {
			inst = in
		} else if err := in.close(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s teardown: %v\n", wl.name, err)
			return 1
		} else {
			runtime.GC()
		}
	}
	slices.Sort(setups)
	setupS := setups[len(setups)/2]

	var next atomic.Int64
	d := time.Duration(*seconds) * time.Second
	metrics := map[string]float64{}
	var ph, traceph *phase
	if !traced {
		ph = runPhase(inst, workers, wl.lockstep, d, &next)
	} else {
		ph = runPhase(inst, workers, wl.lockstep, d/2, &next)
		inst.setTrace(true)
		traceph = runPhase(inst, workers, wl.lockstep, d/2, &next)
		inst.setTrace(false)
	}
	failed := ph.failed
	attempted := ph.ops
	if traceph != nil {
		failed += traceph.failed
		attempted += traceph.ops
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d workers %d go %s\n",
		wl.name, *seed, *seconds, *trace, workers, runtime.Version())
	setupStr := make([]string, len(setups))
	for k, s := range setups {
		setupStr[k] = strconv.FormatFloat(s, 'f', 3, 64)
	}
	fmt.Fprintf(stdout, "set-ups (s, sorted): %s\n", strings.Join(setupStr, " "))
	if !traced {
		metrics["setup_s"] = setupS
		metrics["success_rate"] = float64(attempted-failed) / float64(attempted)
		metrics["allocs_per_op"] = float64(ph.mem.mallocs) / float64(ph.ops)
		metrics["peak_rss_mb"] = rss
		if wl.windowed {
			var rates, p50s, p99s []float64
			fewest := ph.ops
			for _, h := range ph.windows {
				n := h.count()
				rates = append(rates, float64(n)/window.Seconds())
				p50s = append(p50s, ms(h.quantile(0.50)))
				p99s = append(p99s, ms(h.quantile(0.99)))
				fewest = min(fewest, n)
			}
			metrics["throughput_rps"] = median(rates)
			metrics["p50_ms"] = median(p50s)
			metrics["p99_ms"] = median(p99s)
			fmt.Fprintf(stdout, "timed ops %d, failed %d; medians over %d windows of %v, the smallest holding %d ops, %d beyond its p99\n",
				ph.ops, failed, len(ph.windows), window, fewest, beyond(fewest, 0.99))
		} else {
			metrics["throughput_rps"] = ph.rate
			metrics["p50_ms"] = ms(ph.all.quantile(0.50))
			metrics["p99_ms"] = ms(ph.all.quantile(0.99))
			fmt.Fprintf(stdout, "timed ops %d, failed %d; whole-run quantiles, p99 over %d ops with %d beyond it\n",
				ph.ops, failed, ph.ops, beyond(ph.ops, 0.99))
		}
		fmt.Fprintf(stdout, "clock ran in %d segments; %.1f s off the clock checking outputs\n", ph.segments, ph.offClock.Seconds())
		fmt.Fprintf(stdout, "runtime: %s\n", runtimeLine(ph))
		printTable(stdout, endToEnd, metrics)
	} else {
		for _, m := range perLayer {
			metrics[m.name] = 0
		}
		inst.layers(metrics, traceph)
		metrics["runtime.alloc_bytes_per_op"] = float64(ph.mem.bytes) / float64(ph.ops)
		metrics["runtime.gc_per_kop"] = 1000 * float64(ph.mem.gcs) / float64(ph.ops)
		metrics["runtime.gc_pause_us_per_op"] = float64(ph.mem.pauseNs) / 1000 / float64(ph.ops)
		metrics["runtime.heap_inuse_mb"] = float64(ph.mem.heapInuse) / (1 << 20)
		metrics["trace.overhead"] = traceph.rate / ph.rate
		fmt.Fprintf(stdout, "untraced half: %d ops, %.1f/s; traced half: %d ops, %.1f/s\n", ph.ops, ph.rate, traceph.ops, traceph.rate)
		fmt.Fprintf(stdout, "runtime untraced: %s\nruntime traced:   %s\n", runtimeLine(ph), runtimeLine(traceph))
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.csv", wl.name, *seed))
		if err := inst.spans().write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
		printTable(stdout, perLayer, metrics)
	}
	if err := inst.close(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s teardown: %v\n", wl.name, err)
		return 1
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if err := printResult(stdout, failed == 0, attempted, failed, defs, metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// beyond is how many of n ranked ops lie above the nearest-rank
// q-quantile.
func beyond(n int64, q float64) int64 { return n - int64(math.Ceil(q*float64(n))) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func runtimeLine(ph *phase) string {
	return fmt.Sprintf("%.1f allocs/op, %.0f B/op, %d GCs, %.1f µs GC pause/op, heap in use %.1f MB",
		float64(ph.mem.mallocs)/float64(ph.ops),
		float64(ph.mem.bytes)/float64(ph.ops),
		ph.mem.gcs,
		float64(ph.mem.pauseNs)/1000/float64(ph.ops),
		float64(ph.mem.heapInuse)/(1<<20))
}

func printTable(w io.Writer, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
}

// printResult writes the final line: one JSON object with the verdict,
// the op counts and every metric of defs.
func printResult(w io.Writer, correct bool, attempted, failed int64, defs []metricDef, m map[string]float64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = value{m[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
