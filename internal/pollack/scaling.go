package pollack

import (
	"fmt"
	"math"
)

// DefaultTheta is Pollack's empirical performance exponent: sequential
// performance grows with the square root of the area invested.
const DefaultTheta = 0.5

// Scaling generalizes the sequential-core law to perf_seq(r) = r^theta.
// Pollack's rule is the empirical special case theta = 1/2; Ginosar's
// sqrt(m) complexity argument (a core of m resources can usefully
// exploit about sqrt(m) of them) derives the same exponent analytically,
// which makes theta worth exposing as a first-class knob: the sqrtm
// model backend evaluates the whole Chung framework under alternative
// exponents. The power side generalizes with it: power_seq = perf^alpha
// = r^(alpha*theta).
//
// The zero value is not valid; use NewScaling. At theta = 1/2 every
// method reproduces Law's expressions bit for bit (Perf takes the same
// math.Sqrt path, and alpha*0.5 is the same float64 as alpha/2), so the
// generalized law degrades to the paper's exactly.
type Scaling struct {
	alpha float64
	theta float64
}

// NewScaling returns the generalized law. alpha must be positive and
// finite (the paper uses 1.75); theta must be in (0, 1] — theta > 1
// would mean super-linear return on core area, which no published
// scaling argument supports.
func NewScaling(alpha, theta float64) (Scaling, error) {
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return Scaling{}, fmt.Errorf("pollack: alpha must be a positive finite number, got %v", alpha)
	}
	if !(theta > 0 && theta <= 1) {
		return Scaling{}, fmt.Errorf("pollack: theta must be in (0, 1], got %v", theta)
	}
	return Scaling{alpha: alpha, theta: theta}, nil
}

// Alpha returns the performance-to-power exponent.
func (s Scaling) Alpha() float64 { return s.alpha }

// Theta returns the area-to-performance exponent.
func (s Scaling) Theta() float64 { return s.theta }

// Perf returns the sequential performance of a core built from r BCE
// units: perf_seq(r) = r^theta. At theta = 1/2 it computes math.Sqrt(r),
// the exact expression Law.Perf uses.
func (s Scaling) Perf(r float64) (float64, error) {
	if r <= 0 || math.IsNaN(r) {
		return 0, ErrBadResource
	}
	if s.theta == DefaultTheta {
		return math.Sqrt(r), nil
	}
	return math.Pow(r, s.theta), nil
}

// Power returns the active power of a core built from r BCE units:
// power_seq(r) = perf^alpha = r^(alpha*theta). At theta = 1/2 the
// exponent is the same float64 as Law.Power's alpha/2.
func (s Scaling) Power(r float64) (float64, error) {
	if r <= 0 || math.IsNaN(r) {
		return 0, ErrBadResource
	}
	return math.Pow(r, s.alpha*s.theta), nil
}

// PowExp returns the power-law exponent alpha*theta, for callers that
// assemble bound expressions (n <= P / r^(alpha*theta - 1)) directly.
func (s Scaling) PowExp() float64 { return s.alpha * s.theta }
