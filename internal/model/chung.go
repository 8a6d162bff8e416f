package model

import (
	"encoding/json"

	"github.com/calcm/heterosim/internal/bounds"
	"github.com/calcm/heterosim/internal/core"
	"github.com/calcm/heterosim/internal/pollack"
)

// chungBackend serves the paper's own U-core model by delegating to
// internal/core — including its analytic optimizer fast path — so the
// default backend is the pre-existing code path bit for bit.
type chungBackend struct{}

func (chungBackend) Info() Info {
	return Info{
		Name:    "chung",
		Default: true,
		Description: "Chung et al. (MICRO 2010) U-core model: single parallel fraction, " +
			"Pollack-rule sequential core, Table 1 area/power/bandwidth bounds.",
		Capabilities: []string{"optimize", "optimize-energy", "evaluate", "analytic-optimizer"},
	}
}

func (chungBackend) Configure(params json.RawMessage) (Factory, json.RawMessage, error) {
	// The baseline takes no parameters; strict decode rejects any.
	var none struct{}
	if err := decodeParams(params, &none); err != nil {
		return nil, nil, err
	}
	return newChung, nil, nil
}

func newChung(alpha float64, maxR int) (Model, error) {
	law, err := pollack.New(alpha)
	if err != nil {
		return nil, err
	}
	return chungModel{ev: core.Evaluator{Law: law, MaxR: maxR}}, nil
}

type chungModel struct {
	ev core.Evaluator
}

func (m chungModel) Name() string { return "chung" }

func (m chungModel) Space() Space { return Space{MaxR: m.ev.MaxR, Kinds: allKinds()} }

func (m chungModel) Evaluate(d core.Design, f float64, b bounds.Budgets, r int) (core.Point, error) {
	return m.ev.Evaluate(d, f, b, r)
}

func (m chungModel) Optimize(d core.Design, f float64, b bounds.Budgets) (core.Point, error) {
	return m.ev.Optimize(d, f, b)
}

func (m chungModel) OptimizeEnergy(d core.Design, f float64, b bounds.Budgets) (core.Point, error) {
	return m.ev.OptimizeEnergy(d, f, b)
}
