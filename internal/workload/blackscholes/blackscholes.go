// Package blackscholes implements the Black-Scholes European option
// pricing kernel studied by the paper (its PARSEC-derived CPU workload and
// generated hardware pipelines). Pricing is closed-form; the batch driver
// mirrors the paper's throughput-driven measurement where many independent
// options are evaluated. Accounting is options priced and 10 compulsory
// bytes per option.
package blackscholes

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Kind selects call or put.
type Kind int

const (
	// Call option.
	Call Kind = iota
	// Put option.
	Put
)

// String names the option kind.
func (k Kind) String() string {
	if k == Call {
		return "call"
	}
	return "put"
}

// Option is one European option contract plus market parameters.
type Option struct {
	Kind   Kind
	Spot   float64 // current underlying price S
	Strike float64 // strike price K
	Rate   float64 // risk-free rate r (annualized, continuous)
	Vol    float64 // volatility sigma (annualized)
	Time   float64 // time to expiry in years T
}

// Validate reports an error for non-physical parameters or an unknown
// kind.
func (o Option) Validate() error {
	switch {
	case o.Spot <= 0 || math.IsNaN(o.Spot):
		return fmt.Errorf("blackscholes: spot %g must be positive", o.Spot)
	case o.Strike <= 0 || math.IsNaN(o.Strike):
		return fmt.Errorf("blackscholes: strike %g must be positive", o.Strike)
	case o.Vol <= 0 || math.IsNaN(o.Vol):
		return fmt.Errorf("blackscholes: volatility %g must be positive", o.Vol)
	case o.Time <= 0 || math.IsNaN(o.Time):
		return fmt.Errorf("blackscholes: time %g must be positive", o.Time)
	case math.IsNaN(o.Rate):
		return errors.New("blackscholes: rate is NaN")
	case o.Kind != Call && o.Kind != Put:
		return fmt.Errorf("blackscholes: unknown option kind %d", int(o.Kind))
	}
	return nil
}

// CNDF is the cumulative distribution function of the standard normal,
// computed from the error function: Phi(x) = (1 + erf(x/sqrt2)) / 2.
func CNDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// Price returns the Black-Scholes value of the option.
func Price(o Option) (float64, error) {
	if err := o.Validate(); err != nil {
		return 0, err
	}
	return price(o), nil
}

// price is Price for an option that has passed Validate.
func price(o Option) float64 {
	sqrtT := math.Sqrt(o.Time)
	d1 := (math.Log(o.Spot/o.Strike) + (o.Rate+0.5*o.Vol*o.Vol)*o.Time) / (o.Vol * sqrtT)
	d2 := d1 - o.Vol*sqrtT
	disc := math.Exp(-o.Rate * o.Time)
	if o.Kind == Call {
		return o.Spot*CNDF(d1) - o.Strike*disc*CNDF(d2)
	}
	return o.Strike*disc*CNDF(-d2) - o.Spot*CNDF(-d1)
}

// PriceBatch prices every option into out (allocated when nil) serially.
func PriceBatch(opts []Option, out []float64) ([]float64, error) {
	if out == nil {
		out = make([]float64, len(opts))
	}
	if len(out) != len(opts) {
		return nil, fmt.Errorf("blackscholes: out length %d != options %d", len(out), len(opts))
	}
	for i, o := range opts {
		p, err := Price(o)
		if err != nil {
			return nil, fmt.Errorf("option %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

// PriceBatchParallel prices options across workers goroutines (0 means
// GOMAXPROCS). Options are validated up front so workers cannot fail.
func PriceBatchParallel(opts []Option, workers int) ([]float64, error) {
	for i, o := range opts {
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("option %d: %w", i, err)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]float64, len(opts))
	var wg sync.WaitGroup
	chunk := (len(opts) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(opts) {
			hi = len(opts)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = price(opts[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return out, nil
}

// Parity returns the put-call parity residual C - P - (S - K e^{-rT});
// zero (to rounding) for consistent pricing.
func Parity(call, put float64, o Option) float64 {
	return call - put - (o.Spot - o.Strike*math.Exp(-o.Rate*o.Time))
}

// RandomPortfolio generates n options with PARSEC-like parameter ranges,
// deterministic for a given seed: spots 5..200, strikes 5..200, rate
// 1%..10%, vol 5%..90%, expiry 0.05..10 years, alternating call/put.
func RandomPortfolio(n int, seed int64) ([]Option, error) {
	if n <= 0 {
		return nil, errors.New("blackscholes: portfolio size must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	uniform := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	opts := make([]Option, n)
	for i := range opts {
		kind := Call
		if i%2 == 1 {
			kind = Put
		}
		opts[i] = Option{
			Kind:   kind,
			Spot:   uniform(5, 200),
			Strike: uniform(5, 200),
			Rate:   uniform(0.01, 0.10),
			Vol:    uniform(0.05, 0.90),
			Time:   uniform(0.05, 10),
		}
	}
	return opts, nil
}

// IntrinsicLowerBound returns the no-arbitrage lower bound of the option
// value (European): call >= S - K e^{-rT}, put >= K e^{-rT} - S, both
// floored at 0.
func IntrinsicLowerBound(o Option) float64 {
	disc := o.Strike * math.Exp(-o.Rate*o.Time)
	var v float64
	if o.Kind == Call {
		v = o.Spot - disc
	} else {
		v = disc - o.Spot
	}
	if v < 0 {
		return 0
	}
	return v
}
