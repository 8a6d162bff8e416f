package main

import (
	"github.com/calcm/heterosim/internal/server"
)

// Request generation. Each workload's request stream is a pure function
// of (workload, seed, index): op i's kind and body depend on nothing
// else, so two runs with one seed send identical bodies in identical
// order, and the program under test sees only the bodies built here.

// opKind names one request type. The names match the server's endpoint
// names, so printed mixes read like /metrics.
type opKind int

const (
	kOptimize opKind = iota
	kSweep
	kProject
	kScenario
	kSensitivity
	kCompare
	kFrontier
	numKinds
)

var kindNames = [numKinds]string{"optimize", "sweep", "project", "scenario", "sensitivity", "compare", "frontier"}

func (k opKind) String() string { return kindNames[k] }

// mixBlock is the length of one block of the request stream. Each block
// holds every kind exactly its weight's number of times, in a seeded
// order, so the mix is exact at every block boundary and the median
// never drifts between op kinds from one seed to the next.
const mixBlock = 10

// Mixes, weights summing to mixBlock.
var (
	hotHitMix  = [numKinds]int{kOptimize: 6, kProject: 2, kScenario: 1, kCompare: 1}
	coldMixMix = [numKinds]int{kOptimize: 4, kSweep: 2, kSensitivity: 1, kProject: 1, kCompare: 1, kFrontier: 1}
)

// Key-space vocabulary: everything a generated request may name. Each
// device is listed only under workloads it has published parameters
// for, and f stays in [0.5, 0.95), so generated requests succeed;
// TestGeneratedRequestsSucceed sends a stretch of the stream through a
// server to check.
var (
	genWorkloads = []string{"MMM", "BS", "FFT-1024"}
	genDevices   = map[string][]string{
		"MMM":      {"GTX285", "GTX480", "R5870", "LX760", "ASIC"},
		"BS":       {"GTX285", "LX760", "ASIC"},
		"FFT-1024": {"GTX285", "GTX480", "LX760", "ASIC"},
	}
	genNodes = []string{"40nm", "32nm", "22nm", "16nm", "11nm"}
	// genModels spreads keys over all four backends; "" is the default
	// (Chung) backend in its canonical, omitted spelling.
	genModels = []string{"", "multiamdahl", "multiamdahl-thermal", "sqrtm"}
)

// Sizes of the generated work.
const (
	sweepFSteps   = 10 // sweep f-axis points
	sweepBWSteps  = 20 // sweep bandwidth-scale points: 200 cells a sweep
	sweepFSpan    = 0.04
	mcSamples     = 100       // Monte Carlo draws per sensitivity request
	fLo, fSpan    = 0.5, 0.45 // generated f lies in [fLo, fLo+fSpan)
	uniqueBits    = 24        // cold keys: f is a bijection of a 24-bit index
	prefillOffset = 1 << 23   // cold-mix pre-fill indices start here
)

// splitmix64 is the stream's hash: a bijective 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// draw is a small deterministic random source seeded from a tuple.
type draw struct{ x uint64 }

func newDraw(parts ...uint64) *draw {
	d := &draw{x: 0x6A09E667F3BCC908}
	for _, p := range parts {
		d.x = splitmix64(d.x ^ p)
	}
	return d
}

func (d *draw) next() uint64 { d.x = splitmix64(d.x); return d.x }

func (d *draw) intn(n int) int { return int(d.next() % uint64(n)) }

func (d *draw) unit() float64 { return float64(d.next()>>11) / (1 << 53) }

func pick(d *draw, xs []string) string { return xs[d.intn(len(xs))] }

// Stream tags keep the draws of different workloads and purposes apart.
const (
	tagHot uint64 = iota + 1
	tagHotKey
	tagCold
	tagBlock
	tagSample
)

// kindAt returns op i's kind under the mix: block i/mixBlock is the
// mix's multiset shuffled by a seeded Fisher-Yates.
func kindAt(mix *[numKinds]int, tag, seed uint64, i int64) opKind {
	var block [mixBlock]opKind
	n := 0
	for k, w := range mix {
		for j := 0; j < w; j++ {
			block[n] = opKind(k)
			n++
		}
	}
	d := newDraw(tagBlock, tag, seed, uint64(i/mixBlock))
	for j := mixBlock - 1; j > 0; j-- {
		r := d.intn(j + 1)
		block[j], block[r] = block[r], block[j]
	}
	return block[i%mixBlock]
}

// uniqueF maps a cold index onto a parallel fraction. The map is a
// bijection on uniqueBits-bit indices (xor, multiply by an odd constant,
// add, all mod 2^uniqueBits) scaled into [fLo, fLo+fSpan), so distinct
// indices give distinct f and therefore distinct cache keys.
func uniqueF(seed uint64, i int64) float64 {
	const mask = 1<<uniqueBits - 1
	x := (uint64(i) ^ seed) & mask
	x = (x * 0x2545F491) & mask
	x = (x + splitmix64(seed)) & mask
	return fLo + fSpan*float64(x)/(1<<uniqueBits)
}

// designFor draws a design the workload has published parameters for.
func designFor(d *draw, workload string) server.DesignSpec {
	devs := genDevices[workload]
	j := d.intn(2 + len(devs))
	switch j {
	case 0:
		return server.DesignSpec{Kind: "sym"}
	case 1:
		return server.DesignSpec{Kind: "asym"}
	}
	return server.DesignSpec{Kind: "het", Device: devs[j-2]}
}

// build draws the body of one request of kind k from d, at parallel
// fraction f.
func build(k opKind, d *draw, f float64) any {
	w := pick(d, genWorkloads)
	m := pick(d, genModels)
	switch k {
	case kOptimize:
		return server.OptimizeRequest{Workload: w, F: f, Node: pick(d, genNodes), Design: designFor(d, w), Model: m}
	case kSweep:
		return server.SweepRequest{
			Workload: w, Node: pick(d, genNodes), Design: designFor(d, w), Model: m,
			F:              server.AxisSpec{Lo: f, Hi: f + sweepFSpan, Steps: sweepFSteps},
			BandwidthScale: &server.AxisSpec{Lo: 0.5, Hi: 2, Steps: sweepBWSteps},
		}
	case kProject:
		return server.ProjectRequest{Workload: w, F: f, Scenario: d.intn(7), Model: m}
	case kScenario:
		return server.ScenarioRequest{Scenario: 1 + d.intn(6), Workload: w, F: f, Model: m}
	case kSensitivity:
		return server.SensitivityRequest{
			Workload: w, F: f, Node: pick(d, genNodes), Design: designFor(d, w),
			Samples: mcSamples, Seed: int64(1 + d.intn(1000)), Model: m,
		}
	case kCompare:
		first := d.intn(7)
		second := (first + 1 + d.intn(6)) % 7
		return server.CompareRequest{Workload: w, F: f, Pairs: []server.ComparePair{
			{Scenario: first, Model: m},
			{Scenario: second, Model: pick(d, genModels)},
		}}
	case kFrontier:
		return server.FrontierRequest{Workload: w, F: f, Scenario: d.intn(7), Model: m}
	}
	panic("perfbench: unknown op kind")
}

// genOp is one generated request: its kind, its body, and for hot-hit
// the index of its key in the hot set.
type genOp struct {
	kind opKind
	req  any
	key  int
}

// Hot-hit key space: a small set per kind, all warmed before the clock
// starts. hotKeys[k] is the number of distinct keys of kind k.
var hotKeys = [numKinds]int{kOptimize: 24, kProject: 6, kScenario: 3, kCompare: 3}

// hotKey builds key j of kind k. Keys of one kind differ in f, spread
// evenly over the range, so each kind's set has exactly hotKeys[k]
// distinct bodies.
func hotKey(seed uint64, k opKind, j int) any {
	d := newDraw(tagHotKey, seed, uint64(k), uint64(j))
	f := fLo + fSpan*(float64(j)+d.unit())/float64(hotKeys[k])
	return build(k, d, f)
}

// hotSet returns every hot key with its global key index (kinds in
// order, then j), the warm-up list.
func hotSet(seed uint64) []genOp {
	var out []genOp
	for k := opKind(0); k < numKinds; k++ {
		for j := 0; j < hotKeys[k]; j++ {
			out = append(out, genOp{kind: k, req: hotKey(seed, k, j), key: len(out)})
		}
	}
	return out
}

// hotOp returns hot-hit op i: a kind from the mix and a seeded key of
// that kind. set is hotSet(seed), passed in so the stream reuses the
// warmed bodies instead of rebuilding them.
func hotOp(set []genOp, seed uint64, i int64) genOp {
	k := kindAt(&hotHitMix, tagHot, seed, i)
	base := 0
	for kk := opKind(0); kk < k; kk++ {
		base += hotKeys[kk]
	}
	d := newDraw(tagHot, seed, uint64(i))
	return set[base+d.intn(hotKeys[k])]
}

// coldOp returns cold-mix op i: every index has a unique f, so every
// request is a distinct cache key. The timed stream uses indices from 0
// and the pre-fill from prefillOffset, so the two never share a key.
func coldOp(seed uint64, i int64) genOp {
	k := kindAt(&coldMixMix, tagCold, seed, i)
	d := newDraw(tagCold, seed, uint64(i))
	return genOp{kind: k, req: build(k, d, uniqueF(seed, i)), key: -1}
}

// sampled reports whether cold op i belongs to the seeded sample that
// is re-evaluated through the library with the clock stopped: about one
// op in sampleEvery.
func sampled(seed uint64, i int64) bool {
	return newDraw(tagSample, seed, uint64(i)).intn(sampleEvery) == 0
}

const sampleEvery = 32
