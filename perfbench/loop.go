package main

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// instance is one set-up workload, ready for timed phases.
type instance interface {
	// op sends stream op i and reports whether it completed. ctx
	// carries the worker's opState, where op leaves the response body.
	op(ctx context.Context, i int64) bool
	// keep takes the output of completed op i from ctx's opState after
	// its latency is recorded. It either checks the output at once, if
	// that is cheap, or stores it for drain. It reports whether the
	// output passed, and whether the store is full.
	keep(ctx context.Context, i int64) (ok, full bool)
	// drain checks every stored output with the clock stopped, using
	// up to workers goroutines, empties the store, and returns how many
	// failed.
	drain(ctx context.Context, workers int) int64
	// counters snapshots the program's instruments (zero without a
	// server).
	counters() counters
	// setTrace turns span recording on or off.
	setTrace(on bool)
	// layers fills the workload's per-layer metrics from a traced phase.
	layers(m map[string]float64, ph *phase)
	// spans returns the tracer holding the run's spans (nil untraced).
	spans() *tracer
	close() error
}

// phase is one timed closed-loop run of the workers.
type phase struct {
	// windows[i] counts the latencies of the ops that completed in the
	// i-th second of the phase clock; only whole seconds are kept.
	windows []*hist
	// all counts every op's latency, the last partial second included.
	all    hist
	ops    int64
	failed int64
	// rate is the sum over workers of ops completed / clock time to the
	// worker's last completion. Workers start no op after the deadline
	// and finish the one in flight, so no op is cut and the rate does
	// not jump by a whole op when an op straddles the deadline.
	rate float64
	// segments is how many times the clock ran; offClock is the time
	// spent between segments draining stored outputs.
	segments int
	offClock time.Duration
	mem      memDelta // runtime figures over the segments only
	c0, c1   counters
}

// memDelta sums runtime.MemStats deltas over the timed segments.
type memDelta struct {
	mallocs, bytes, pauseNs uint64
	gcs                     uint32
	heapInuse               uint64 // at the end of the last segment
}

func (m *memDelta) add(a, b *runtime.MemStats) {
	m.mallocs += b.Mallocs - a.Mallocs
	m.bytes += b.TotalAlloc - a.TotalAlloc
	m.pauseNs += b.PauseTotalNs - a.PauseTotalNs
	m.gcs += b.NumGC - a.NumGC
	m.heapInuse = b.HeapInuse
}

// Latency histograms: 2^subBits buckets per power of two of
// nanoseconds from 2^minExp ns (about 1 µs) to 2^maxExp ns (about 137
// s), so a bucket is under 1.1% wide.
const (
	subBits    = 6
	minExp     = 10
	maxExp     = 37
	numBuckets = (maxExp - minExp) << subBits
	window     = time.Second
	maxWindows = 64 // covers the longest --seconds the driver may ask for
	maxWorkers = 64
)

type hist [numBuckets]uint32

// histLog holds every worker's per-second histograms. It is a
// pointer-free package array, so it lives outside the garbage-collected
// heap: the program's collector, which paces itself by live heap, runs
// as it would without the benchmark. Each phase clears the part it
// uses first, so the benchmark's resident memory is the same whatever
// the op count.
var histLog [maxWorkers][maxWindows]hist

func bucketOf(d time.Duration) int {
	ns := uint64(max(d, 1<<minExp))
	e := bits.Len64(ns) - 1
	if e >= maxExp {
		return numBuckets - 1
	}
	return (e-minExp)<<subBits | int(ns>>(e-subBits))&(1<<subBits-1)
}

// bucketLow is the smallest duration in bucket b.
func bucketLow(b int) float64 {
	e := b>>subBits + minExp
	return float64(uint64(1<<subBits|b&(1<<subBits-1)) << (e - subBits))
}

func (h *hist) add(o *hist) {
	for i, c := range o {
		h[i] += c
	}
}

func (h *hist) count() int64 {
	var n int64
	for _, c := range h {
		n += int64(c)
	}
	return n
}

// quantile is the nearest-rank q-quantile, placed by linear
// interpolation inside the bucket the rank falls in.
func (h *hist) quantile(q float64) time.Duration {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(n))), 1)
	var cum int64
	for b, c := range h {
		if c > 0 && cum+int64(c) >= rank {
			lo, hi := bucketLow(b), bucketLow(b+1)
			return time.Duration(lo + (hi-lo)*(float64(rank-cum)-0.5)/float64(c))
		}
		cum += int64(c)
	}
	return time.Duration(bucketLow(numBuckets))
}

// runPhase drives the closed loop for d of clock time: workers
// goroutines, each sending its next op only after the previous
// completed, drawing op indices from next. In lockstep the workers
// start their ops together, in rounds.
//
// The clock runs in segments. A segment ends at the deadline, or early
// when the instance's store of outputs awaiting their checks is full:
// the workers start no new op and finish the one in flight, then the
// stored outputs are checked and their garbage collected with the
// clock stopped. The checks' CPU time, allocations and collections so
// fall outside every timed figure.
func runPhase(inst instance, workers int, lockstep bool, d time.Duration, next *atomic.Int64) *phase {
	type result struct {
		ops, failed int64
		last        time.Duration
	}
	res := make([]result, workers)
	ctxs := make([]context.Context, workers)
	for w := range res {
		clear(histLog[w][:])
		ctxs[w] = context.WithValue(context.Background(), stateKey{}, &opState{})
	}
	ph := &phase{c0: inst.counters()}
	var clock time.Duration // clock time of the finished segments
	for clock < d {
		var m0, m1 runtime.MemStats
		var full atomic.Bool
		runtime.ReadMemStats(&m0)
		start := time.Now()
		now := func() time.Duration { return clock + time.Since(start) }
		more := func(t time.Duration) bool { return t < d && !full.Load() }
		// step runs worker w's next op, started at t0, records its
		// latency and hands its output to keep. It returns the start of
		// the worker's next op.
		step := func(w int, t0 time.Duration) time.Duration {
			i := next.Add(1) - 1
			ok := inst.op(ctxs[w], i)
			t1 := now()
			histLog[w][min(int(t1/window), maxWindows-1)][bucketOf(t1-t0)]++
			if ok {
				var f bool
				ok, f = inst.keep(ctxs[w], i)
				if f {
					full.Store(true)
				}
			}
			r := &res[w]
			r.ops++
			if !ok {
				r.failed++
			}
			r.last = t1
			return now()
		}
		var wg sync.WaitGroup
		if lockstep {
			for t0 := now(); more(t0); t0 = now() {
				for w := range res {
					wg.Add(1)
					go func() {
						defer wg.Done()
						step(w, t0)
					}()
				}
				wg.Wait()
			}
		} else {
			for w := range res {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for t0 := now(); more(t0); {
						t0 = step(w, t0)
					}
				}()
			}
			wg.Wait()
		}
		clock = now()
		runtime.ReadMemStats(&m1)
		ph.mem.add(&m0, &m1)
		ph.segments++
		t := time.Now()
		ph.failed += inst.drain(context.Background(), workers)
		runtime.GC()
		ph.offClock += time.Since(t)
	}
	ph.c1 = inst.counters()
	var last time.Duration
	for _, r := range res {
		ph.ops += r.ops
		ph.failed += r.failed
		if r.ops > 0 {
			ph.rate += float64(r.ops) / r.last.Seconds()
		}
		last = max(last, r.last)
	}
	whole := min(int(last/window), maxWindows-1)
	for i := 0; i <= whole; i++ {
		h := new(hist)
		for w := range res {
			h.add(&histLog[w][i])
		}
		ph.all.add(h)
		if i < whole {
			ph.windows = append(ph.windows, h)
		}
	}
	return ph
}

// median is the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
