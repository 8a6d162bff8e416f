package sensitivity

import (
	"math/rand"
	"sync"
)

// math/rand's source seeds in two stages. A Lehmer LCG
// (x ← 48271·x mod 2³¹−1, started from the seed) runs 20 steps, then
// three more per register element; the three outputs are packed into
// one word and XORed with a fixed 607-entry table. Drawing is an
// additive lagged-Fibonacci step with lags 607 and 273 that starts at
// tap 0 and feed 334. Until the feed index reaches an entry an earlier
// draw overwrote, which first happens at draw 273, draw k is the plain
// sum vec[333−k] + vec[606−k] of two freshly seeded elements, and
// element i depends only on LCG positions 20+3i+1..3. lazySource
// computes just those elements, reaching position n with one multiply
// by a precomputed 48271ⁿ, so seeding costs nothing and a draw a few
// multiplies. From draw 273 on it hands over to a full math/rand source.
const (
	rngLen = 607
	rngTap = 273
	lcgMul = 48271
	lcgMod = 1<<31 - 1
)

var (
	// lcgPow[i] is 48271^(20+3i+1) mod 2³¹−1: the multiplier that takes
	// the normalized seed to the first LCG output of element i.
	lcgPow = lcgPowers()
	// cooked is math/rand's fixed table, recovered by cookedTable.
	cooked = cookedTable()
)

func lcgPowers() (t [rngLen]uint64) {
	p := uint64(1)
	for n := 0; n < 21; n++ {
		p = p * lcgMul % lcgMod
	}
	const step = lcgMul * lcgMul % lcgMod * lcgMul % lcgMod
	for i := range t {
		t[i] = p
		p = p * step % lcgMod
	}
	return t
}

// cookedTable recovers math/rand's fixed table from math/rand itself.
// The first 607 draws overwrite every register entry exactly once, in
// feed order, so afterwards the register holds exactly those draws.
// Undoing each draw in reverse (vec[feed] −= vec[tap]) restores the
// freshly seeded register, and XORing out each element's LCG part
// leaves the table.
func cookedTable() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var vec [rngLen]int64
	tap, feed := 0, rngLen-rngTap
	for k := 0; k < rngLen; k++ {
		tap = (tap + rngLen - 1) % rngLen
		feed = (feed + rngLen - 1) % rngLen
		vec[feed] = int64(src.Uint64())
	}
	for k := 0; k < rngLen; k++ {
		vec[feed] -= vec[tap]
		tap = (tap + 1) % rngLen
		feed = (feed + 1) % rngLen
	}
	x0 := normSeed(seed)
	for i := range vec {
		vec[i] ^= lcgWord(x0, i)
	}
	return vec
}

// normSeed maps a seed to the LCG start state exactly as math/rand
// does: reduced mod 2³¹−1 into [1, 2³¹−2], with 0 replaced by
// math/rand's fixed substitute.
func normSeed(seed int64) uint64 {
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = 89482311
	}
	return uint64(x)
}

// lcgWord is the LCG part of register element i for start state x0:
// its three outputs packed the way math/rand packs them.
func lcgWord(x0 uint64, i int) int64 {
	x := x0 * lcgPow[i] % lcgMod
	u := int64(x) << 40
	x = x * lcgMul % lcgMod
	u ^= int64(x) << 20
	x = x * lcgMul % lcgMod
	return u ^ int64(x)
}

// lazySource is a rand.Source64 that yields exactly the stream of
// rand.NewSource(seed) without building its 607-word register first.
// Seeding allocates nothing; only a stream drawn past rngTap values
// builds (once per lazySource, reseeded afterwards) the full source.
type lazySource struct {
	seed int64
	x0   uint64 // normSeed(seed)
	n    int    // draws since Seed
	full rand.Source64
}

func (s *lazySource) Seed(seed int64) {
	s.seed, s.x0, s.n = seed, normSeed(seed), 0
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *lazySource) Uint64() uint64 {
	k := s.n
	s.n++
	if k < rngTap {
		return uint64(s.element(rngLen-rngTap-1-k) + s.element(rngLen-1-k))
	}
	if k == rngTap {
		if s.full == nil {
			s.full = rand.NewSource(s.seed).(rand.Source64)
		} else {
			s.full.Seed(s.seed)
		}
		for j := 0; j < rngTap; j++ {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

// element is entry i of the register rand.NewSource(seed) starts from.
func (s *lazySource) element(i int) int64 { return lcgWord(s.x0, i) ^ cooked[i] }

// streams hands each Monte Carlo worker a generator over a lazySource
// to reseed per sample, so a sample allocates nothing.
var streams = sync.Pool{New: func() any { return rand.New(new(lazySource)) }}

// splitmix64 is the SplitMix64 finalizer, used to derive decorrelated
// per-sample RNG seeds from (seed, sample index). Adjacent raw seeds feed
// Go's additive-lagged-Fibonacci source nearly identical streams; the
// finalizer scatters them across the seed space.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// sampleSeed is the math/rand seed of sample i's sub-stream.
func sampleSeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed) + uint64(i)))
}
