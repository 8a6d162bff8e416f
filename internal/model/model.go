// Package model is the pluggable model-backend layer: where package
// engine abstracts how an operation is *served*, this package abstracts
// which member of the Amdahl-extension family *answers* it. A Model
// evaluates speedup and energy for a design point under budgets,
// optimizes over its design space (the sequential-core size r), and
// reports its capabilities and parameter schema for discovery
// (GET /v1/models).
//
// Four backends register at init:
//
//   - chung: the paper's U-core model (the default), delegating to
//     internal/core bit for bit.
//   - multiamdahl: Zidenberg/Keslassy/Weiser's Multi-Amdahl — multiple
//     program execution segments with closed-form Lagrange-optimal area
//     allocation across accelerators.
//   - multiamdahl-thermal: Yavits/Morad/Ginosar's thermal extension — a
//     temperature budget as a fourth constraint next to area, power,
//     and bandwidth.
//   - sqrtm: Ginosar's sqrt(m) complexity scaling as a generalized
//     alternative to Pollack's rule (perf_seq = r^theta).
//
// Backends are immutable once constructed, so one instance may serve
// concurrent requests; construction canonicalizes the caller's raw
// parameters so equivalent spellings share one serving-cache entry.
package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/calcm/heterosim/internal/amdahl"
	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/pollack"
)

// Optimizer is the minimal evaluation surface the projection,
// sensitivity, and serving fan-outs consume: optimize the design point
// for one objective under one budget triple. Every Model satisfies it,
// and so does core.Evaluator, which the chung backend wraps.
type Optimizer interface {
	Optimize(d core.Design, f float64, b bounds.Budgets) (core.Point, error)
	OptimizeEnergy(d core.Design, f float64, b bounds.Budgets) (core.Point, error)
}

// Model is one configured backend instance.
type Model interface {
	Optimizer

	// Name is the backend's canonical registry name, e.g. "chung".
	Name() string

	// Evaluate computes the design point at a fixed sequential-core
	// size r instead of optimizing over the design space.
	Evaluate(d core.Design, f float64, b bounds.Budgets, r int) (core.Point, error)

	// Space enumerates the design space Optimize searches.
	Space() Space
}

// Space describes a backend's design space: the sequential-core sizes
// swept and the chip organizations it can evaluate.
type Space struct {
	MaxR  int      `json:"maxR"`
	Kinds []string `json:"kinds"`
}

// allKinds is the design-kind lineup every current backend evaluates.
func allKinds() []string { return []string{"sym", "asym", "het"} }

// ParamSpec documents one backend parameter for discovery clients.
type ParamSpec struct {
	Name        string `json:"name"`
	Type        string `json:"type"`
	Default     string `json:"default,omitempty"`
	Description string `json:"description"`
}

// Info is one backend's discovery document.
type Info struct {
	Name         string      `json:"name"`
	Default      bool        `json:"default,omitempty"`
	Description  string      `json:"description"`
	Capabilities []string    `json:"capabilities"`
	Params       []ParamSpec `json:"params,omitempty"`
}

// Backend constructs configured instances of one model family.
type Backend interface {
	// Info returns the discovery document.
	Info() Info

	// New builds an immutable instance for (alpha, maxR), decoding
	// params strictly (unknown fields are errors) and returning their
	// canonical encoding — fully defaulted, so every spelling of the
	// same configuration produces identical bytes and therefore one
	// serving-cache entry.
	New(alpha float64, maxR int, params json.RawMessage) (Model, json.RawMessage, error)
}

// DefaultName is the backend behind requests that do not name one.
const DefaultName = "chung"

// The registry. Backends register in the package init below; the set is
// immutable afterwards, so lookups need no locking.
var (
	backends     = map[string]Backend{}
	backendOrder []string
)

// Register adds a backend under its Info().Name, panicking on
// duplicates — like engine.NewRegistry, a duplicate is a programming
// error caught at init.
func Register(b Backend) {
	name := b.Info().Name
	if name == "" || name != strings.ToLower(name) {
		panic(fmt.Sprintf("model: backend name %q must be non-empty lowercase", name))
	}
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("model: duplicate backend %q", name))
	}
	backends[name] = b
	backendOrder = append(backendOrder, name)
}

// init registers the built-in family in one place so the listing order
// is fixed by this file, not by file-name init order.
func init() {
	Register(chungBackend{})
	Register(multiAmdahlBackend{})
	Register(thermalBackend{})
	Register(sqrtmBackend{})
}

// Names lists the registered backends in registration order.
func Names() []string {
	out := make([]string, len(backendOrder))
	copy(out, backendOrder)
	return out
}

// Infos lists every backend's discovery document in registration order.
func Infos() []Info {
	out := make([]Info, 0, len(backendOrder))
	for _, name := range backendOrder {
		out = append(out, backends[name].Info())
	}
	return out
}

// Canonical maps a request's model spelling onto the registry: names
// are case-insensitive and the empty string means the default backend.
func Canonical(name string) (string, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	if n == "" {
		n = DefaultName
	}
	if _, ok := backends[n]; !ok {
		return "", fmt.Errorf("model: unknown model %q (want one of %s)", name, strings.Join(Names(), ", "))
	}
	return n, nil
}

// Lookup returns the backend registered under the canonicalized name.
func Lookup(name string) (Backend, error) {
	canon, err := Canonical(name)
	if err != nil {
		return nil, err
	}
	return backends[canon], nil
}

// New canonicalizes the name and builds a configured instance.
// alpha <= 0 means the paper default (1.75); maxR <= 0 means the
// paper's sweep bound (16). The returned RawMessage is the canonical
// parameter encoding (nil when the backend takes none).
func New(name string, alpha float64, maxR int, params json.RawMessage) (Model, json.RawMessage, error) {
	b, err := Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	if alpha <= 0 {
		alpha = pollack.DefaultAlpha
	}
	if maxR <= 0 {
		maxR = 16
	}
	return b.New(alpha, maxR, params)
}

// Factory defers instance construction until the projection layer knows
// its (alpha, maxR): Scenario 6 rewrites alpha and the sequential-sizing
// ablation pins maxR, and those configuration transforms must reach the
// backend. project.Config treats a nil Factory as the default backend.
type Factory func(alpha float64, maxR int) (Model, error)

// NewFactory returns a Factory closing over a validated (name, params)
// pair. params should already be canonical (from a prior New call);
// construction errors surface when the factory runs.
func NewFactory(name string, params json.RawMessage) Factory {
	return func(alpha float64, maxR int) (Model, error) {
		m, _, err := New(name, alpha, maxR, params)
		return m, err
	}
}

// decodeParams strictly decodes raw backend parameters: unknown fields
// and trailing data are errors, and an absent or null document leaves
// the defaults untouched.
func decodeParams(raw json.RawMessage, into any) error {
	if len(raw) == 0 || string(raw) == "null" {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("model: invalid params: %v", err)
	}
	// Token, not More: More reports false before a stray ']' or '}', so
	// only io.EOF proves the document ended.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("model: invalid params: trailing data")
	}
	return nil
}

// canonicalParams re-marshals the fully defaulted typed params so every
// spelling of one configuration (omitted fields, reordered keys,
// whitespace) shares one canonical byte encoding.
func canonicalParams(p any) (json.RawMessage, error) {
	out, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("model: encoding params: %v", err)
	}
	return out, nil
}

// maxSegments caps a Multi-Amdahl segment list. The per-r kernel keeps
// its allocation fractions in a stack array of this size, so New
// rejects longer lists.
const maxSegments = 64

// gridMaxR is the largest r a backend searches: maxR < 1 means the
// paper's sweep bound, 16.
func gridMaxR(maxR int) int {
	if maxR < 1 {
		return 16
	}
	return maxR
}

// evalInputs validates the inputs every r-scanning backend's Evaluate
// checks before its serial bounds (design, then r, then f) and returns
// the budgets those bounds see: a bandwidth-exempt design gets an
// unbounded bandwidth budget.
func evalInputs(d core.Design, f float64, b bounds.Budgets, r int) (bounds.Budgets, error) {
	if err := d.Validate(); err != nil {
		return b, err
	}
	if r < 1 {
		return b, errors.New("model: r must be >= 1")
	}
	if f < 0 || f > 1 || math.IsNaN(f) {
		return b, amdahl.ErrFraction
	}
	if d.ExemptBandwidth {
		b.Bandwidth = math.Inf(1)
	}
	return b, nil
}

// kernel is a backend's per-r evaluation, bound to one input that
// evalInputs accepted (a design, a fraction and the effective budgets)
// and run only at serial-feasible r. Evaluate and the optimizers both
// run it. Neither half allocates or builds an error, so an optimizer
// pays for an error only when no r is feasible at all.
type kernel struct {
	// bound returns the usable resources, the speedup and the binding
	// budget at r, or false when no parallel resources remain for
	// parallel work.
	bound func(r int) (n, speedup float64, lim bounds.Limit, ok bool)
	// energyNorm returns the normalized energy at r. No budget reaches
	// it, so the speedup scan computes it for its winner only.
	energyNorm func(r int) float64
}

// at assembles the design point of design d at fraction f and core size
// r, or reports false where bound does.
func (k *kernel) at(d core.Design, f float64, r int) (core.Point, bool) {
	n, speedup, lim, ok := k.bound(r)
	if !ok {
		return core.Point{}, false
	}
	return core.Point{
		Design: d, F: f, R: r, N: n,
		Speedup: speedup, Limit: lim, EnergyNorm: k.energyNorm(r),
	}, true
}

// scan is the integer-r design-space search over the serial-feasible
// range [1, rTop]: argmax of speedup (or argmin of energy) among the r
// bound accepts, ties broken toward smaller r exactly as
// core.OptimizeGrid breaks them. It returns the winner's point, or
// false when no r is accepted.
func (k *kernel) scan(d core.Design, f float64, rTop int, energy bool) (core.Point, bool) {
	var (
		best  int
		bestV float64
	)
	for r := 1; r <= rTop; r++ {
		_, v, _, ok := k.bound(r)
		if !ok {
			continue
		}
		if energy {
			v = k.energyNorm(r)
		}
		if best == 0 || (energy && v < bestV) || (!energy && v > bestV) {
			best, bestV = r, v
		}
	}
	if best == 0 {
		return core.Point{}, false
	}
	return k.at(d, f, best)
}

// noFeasibleR is the error an r-scanning Optimize returns when no r in
// [1, maxR] is feasible: core.ErrInfeasible wrapping cause, Evaluate's
// error at the largest r searched, so the serving layer's 422 mapping
// works for every backend.
func noFeasibleR(cause error) error {
	return fmt.Errorf("%w: %v", core.ErrInfeasible, cause)
}
