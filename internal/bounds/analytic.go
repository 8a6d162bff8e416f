// analytic.go is the closed-form side of Table 1: instead of probing the
// bounds row by row for every r, these helpers identify where each budget
// binds as a function of r, so an optimizer can visit only the O(pieces)
// candidate core sizes whose speedup can be maximal.
//
// The structure being exploited: for a fixed design family the usable
// resources are n(r) = min of three smooth curves, one per budget.
//
//	symmetric:     n = min(A, P·r^(1-α/2), B·√r)
//	asym-offload:  n = min(A, P+r, B+r) = min(A, min(P,B)+r)
//	heterogeneous: n = min(A, P/φ+r, B/µ+r) = min(A, min(P/φ,B/µ)+r)
//
// Each pair of curves has a monotone ratio in r, so each pair crosses at
// most once and the binding budget changes only at those crossings. The
// speedup restricted to one piece is monotone or unimodal (package core
// derives the per-piece optima), so the integer argmax over r lies at a
// piece boundary or adjacent to a per-piece stationary point.
package bounds

import (
	"math"

	"github.com/calcm/heterosim/internal/pollack"
)

// Attribute takes the three per-budget bounds for core size r, clamps n
// below by r (a chip always contains at least its sequential core), and
// identifies the binding budget. Area wins attribution only when it is
// the strict minimum; when power or bandwidth prevents the full area from
// being used, that budget is reported (matching the dashed/solid plotting
// convention). It is the assembly step shared by Symmetric,
// AsymmetricOffload, and Heterogeneous, exported so closed-form callers
// that compute the three bounds themselves produce bit-identical Bounds.
func Attribute(r, nArea, nPow, nBW float64) Bound {
	n := math.Min(nArea, math.Min(nPow, nBW))
	lim := AreaLimited
	switch {
	case nPow < nArea && nPow <= nBW:
		lim = PowerLimited
	case nBW < nArea && nBW < nPow:
		lim = BandwidthLimited
	}
	if n < r {
		// The parallel-phase budget cannot even cover the sequential core's
		// area slot; the usable n degenerates to r (no parallel resources).
		n = r
	}
	return Bound{R: r, NArea: nArea, NPower: nPow, NBandwidt: nBW, N: n, Limit: lim}
}

// serialOK reports whether integer core size r passes the three serial
// bounds, with exactly the comparisons SerialFeasible makes (so the two
// never disagree at a float boundary) but without constructing errors.
func serialOK(law pollack.Law, b Budgets, r float64) bool {
	if r > b.Area {
		return false
	}
	pw, err := law.Power(r)
	if err != nil || pw > b.Power {
		return false
	}
	return !(r > b.Bandwidth*b.Bandwidth)
}

// SerialCap returns the largest integer r in [1, maxR] satisfying all
// three serial bounds (r <= A, r^(α/2) <= P, r <= B²), or 0 when even
// r = 1 is infeasible. The cap is solved in closed form and then the
// boundary is verified with the exact SerialFeasible comparisons, so the
// result matches a linear scan bit for bit. The budgets must already be
// valid (Validate passed); +Inf budgets are allowed and simply do not
// bind.
func SerialCap(law pollack.Law, b Budgets, maxR int) int {
	alpha := law.Alpha()
	cap := math.Min(b.Area, b.Bandwidth*b.Bandwidth)
	if alpha > 0 {
		// r^(α/2) <= P  ⇔  r <= P^(2/α); P < 1 leaves no room even for r=1,
		// which SettleCap's verification confirms. MaxRForPower fails only
		// for an invalid P, which the precondition excludes; its 0 would
		// still be settled by the exact comparisons.
		mp, _ := law.MaxRForPower(b.Power)
		cap = math.Min(cap, mp)
	} else if !(1 <= b.Power) {
		// Degenerate α <= 0: power is flat at 1 for every r.
		return 0
	}
	return SettleCap(cap, maxR, func(r float64) bool { return serialOK(law, b, r) })
}

// SettleCap turns a closed-form real cap into the largest integer r in
// [1, maxR] that ok accepts, or 0 when ok rejects r = 1. ok must be
// monotone in r (true up to some r, false beyond). The closed form can be
// off by an ulp at a boundary, so the result is settled with ok's exact
// comparisons: normally at most one probe in each direction. A NaN cap
// starts the search from maxR.
func SettleCap(cap float64, maxR int, ok func(r float64) bool) int {
	if maxR < 1 {
		return 0
	}
	g := maxR
	if cap < 1 {
		g = 0
	} else if cap < float64(maxR) {
		g = int(math.Floor(cap))
	}
	for g > 0 && !ok(float64(g)) {
		g--
	}
	for g < maxR && ok(float64(g+1)) {
		g++
	}
	return g
}

// SymmetricBreaks appends to buf the r values at which the binding budget
// of the symmetric-CMP bound can change: the pairwise crossings of A,
// P·r^(1-α/2), and B·√r. Values may fall outside the caller's feasible
// range (or be 0/±Inf for degenerate budget ratios); callers clamp.
func SymmetricBreaks(law pollack.Law, b Budgets, buf []float64) []float64 {
	alpha := law.Alpha()
	if alpha != 2 {
		// A = P·r^(1-α/2)  ⇔  r = (A/P)^(2/(2-α))
		buf = append(buf, math.Pow(b.Area/b.Power, 2/(2-alpha)))
	}
	// A = B·√r  ⇔  r = (A/B)²
	ab := b.Area / b.Bandwidth
	buf = append(buf, ab*ab)
	if alpha != 1 {
		// P·r^(1-α/2) = B·√r  ⇔  r = (P/B)^(2/(α-1))
		buf = append(buf, math.Pow(b.Power/b.Bandwidth, 2/(alpha-1)))
	}
	return buf
}

// AsymmetricOffloadBreaks appends the single crossing of the asym-offload
// bound: below r = A - min(P, B) the cheaper of power/bandwidth binds
// (n - r is constant), above it area binds (n = A).
func AsymmetricOffloadBreaks(b Budgets, buf []float64) []float64 {
	return append(buf, b.Area-math.Min(b.Power, b.Bandwidth))
}

// HeterogeneousBreaks is AsymmetricOffloadBreaks with the U-core scaled
// budgets: the crossing sits at r = A - min(P/φ, B/µ).
func HeterogeneousBreaks(b Budgets, u UCore, buf []float64) []float64 {
	return append(buf, b.Area-math.Min(b.Power/u.Phi, b.Bandwidth/u.Mu))
}
