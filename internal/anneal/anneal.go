// Package anneal implements the simulated-annealing search baseline the
// paper compares the auto-tuner against (Tables IV/V): a random global
// search with geometric cooling, run on the same evaluation budget as the
// Bayesian auto-tuner.
//
// The core type is the stepwise Annealer, which exposes the propose /
// observe halves of each annealing step separately so a training runtime
// can interleave real epoch measurements with the walk; search.Run
// drives it offline against a search.Objective.
package anneal

import (
	"math"
	"math/rand"

	"argo/internal/search"
)

// The annealing schedule: initial and final temperature on the
// relative-cost scale.
const (
	startTemp = 0.3
	endTemp   = 0.01
)

// Annealer performs simulated annealing one proposal at a time. Each
// Next proposes a feasible configuration (a one-dimension move from the
// current point, with an occasional random restart kick); Observe records
// its measured cost, applies the Metropolis acceptance rule with
// probability exp(−Δ/T) on the relative cost increase Δ, and cools T
// geometrically from startTemp to endTemp over the evaluation budget.
type Annealer struct {
	sp     search.Space
	budget int
	rng    *rand.Rand

	cur      search.Config
	curY     float64
	haveCur  bool
	observed int

	temp, alpha float64
}

// NewAnnealer builds an annealer over sp with the given evaluation budget.
func NewAnnealer(sp search.Space, budget int, rng *rand.Rand) *Annealer {
	return &Annealer{
		sp:     sp,
		budget: budget,
		rng:    rng,
		temp:   startTemp,
		alpha:  math.Pow(endTemp/startTemp, 1/math.Max(1, float64(budget-1))),
	}
}

// Next proposes the next configuration to evaluate. ok is false once the
// evaluation budget is exhausted.
func (a *Annealer) Next() (search.Config, bool) {
	if a.observed >= a.budget {
		return search.Config{}, false
	}
	if !a.haveCur {
		return a.sp.Random(a.rng), true
	}
	nbrs := a.sp.Neighbors(a.cur)
	if len(nbrs) == 0 || a.rng.Float64() < 0.1 {
		// Occasional restart kick keeps the walk from being trapped in a
		// feasibility corner.
		return a.sp.Random(a.rng), true
	}
	return nbrs[a.rng.Intn(len(nbrs))], true
}

// Observe records an evaluated configuration and its cost, applying the
// acceptance rule and cooling the temperature. Non-finite costs (a
// crashed measurement) are rejected outright.
func (a *Annealer) Observe(c search.Config, y float64) {
	a.observed++
	finite := search.IsFinite(y)
	if !a.haveCur {
		if finite {
			a.cur, a.curY, a.haveCur = c, y, true
		}
		return
	}
	if finite {
		delta := (y - a.curY) / math.Max(a.curY, 1e-12)
		if delta <= 0 || a.rng.Float64() < math.Exp(-delta/a.temp) {
			a.cur, a.curY = c, y
		}
	}
	a.temp *= a.alpha
}
