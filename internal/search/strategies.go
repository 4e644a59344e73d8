package search

import (
	"math"
	"math/rand"
	"time"
)

// IsFinite reports whether v is a usable measurement — the shared
// crashed-measurement convention: NaN and ±Inf mark a crashed epoch and
// must never become an incumbent.
func IsFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Strategy is an auto-tuning policy: the propose and learn halves of
// one online-learning step (Algorithm 1's Tuner.get_next, then the model
// update). A caller — Run offline, the training runtime online —
// calls Next to obtain the configuration for the next epoch, measures
// it, and feeds the result back through Observe, both through a Tuning,
// which keeps the incumbent and the overhead clock for every strategy.
//
// Implementations must be deterministic given their construction seed and
// the observation sequence; they are used from a single goroutine.
type Strategy interface {
	// Next proposes the next configuration to evaluate. ok is false once
	// the strategy has nothing further to propose (its budget is
	// exhausted, or the space is fully explored).
	Next() (cfg Config, ok bool)
	// Observe records the measured epoch time (seconds) of a proposed —
	// or warm-started — configuration. A non-finite time marks a crashed
	// measurement.
	Observe(cfg Config, seconds float64)
}

// Tuning drives one Strategy and keeps the score of the run: the
// incumbent (Algorithm 1's Tuner.get_opt) and the time the strategy
// itself consumed in Next and Observe — surrogate fits, acquisition
// maximisation, proposal draws — which is the auto-tuning overhead the
// paper profiles in §VI-D.
type Tuning struct {
	Strategy

	best     Config
	bestY    float64
	have     bool
	overhead time.Duration
}

// Next asks the strategy for its next proposal.
func (t *Tuning) Next() (Config, bool) {
	start := time.Now()
	defer func() { t.overhead += time.Since(start) }()
	return t.Strategy.Next()
}

// Observe feeds one measurement to the strategy and reports whether it
// became the incumbent: the first finite cost does, after it only a
// strictly lower one, and a non-finite cost (a crashed measurement)
// never does.
func (t *Tuning) Observe(c Config, y float64) bool {
	start := time.Now()
	t.Strategy.Observe(c, y)
	t.overhead += time.Since(start)
	if !IsFinite(y) || t.have && y >= t.bestY {
		return false
	}
	t.best, t.bestY, t.have = c, y, true
	return true
}

// Best returns the incumbent and its cost, zero values until one exists.
func (t *Tuning) Best() (Config, float64) { return t.best, t.bestY }

// Overhead returns the time spent inside the strategy so far.
func (t *Tuning) Overhead() time.Duration { return t.overhead }

// Run drives s against obj offline — propose, evaluate, observe — until
// s has nothing further to propose.
func Run(s Strategy, obj Objective) Result {
	t := Tuning{Strategy: s}
	var res Result
	for c, ok := t.Next(); ok; c, ok = t.Next() {
		y := obj.Evaluate(c)
		t.Observe(c, y)
		res.History = append(res.History, Eval{Config: c, Time: y})
	}
	res.Evals = len(res.History)
	res.Best, res.BestTime = t.Best()
	res.Overhead = t.Overhead()
	return res
}

// RandomSearcher proposes feasible configurations uniformly at random
// (avoiding repeats best-effort) one at a time.
type RandomSearcher struct {
	sp     Space
	budget int
	rng    *rand.Rand
	size   int
	seen   map[Config]bool
	// observed counts observations against the budget.
	observed int
}

// NewRandomSearcher builds a random searcher over sp with the given
// evaluation budget.
func NewRandomSearcher(sp Space, budget int, rng *rand.Rand) *RandomSearcher {
	return &RandomSearcher{sp: sp, budget: budget, rng: rng, size: sp.Size(), seen: map[Config]bool{}}
}

// Next proposes the next configuration. ok is false once the budget is
// exhausted.
func (r *RandomSearcher) Next() (Config, bool) {
	if r.observed >= r.budget {
		return Config{}, false
	}
	for {
		c := r.sp.Random(r.rng)
		if !r.seen[c] || len(r.seen) >= r.size {
			return c, true
		}
	}
}

// Observe records an evaluated configuration; its cost does not steer
// the draws.
func (r *RandomSearcher) Observe(c Config, _ float64) {
	r.observed++
	r.seen[c] = true
}

// ExhaustiveSearcher walks every feasible configuration in enumeration
// order — the paper's optimal but intractably expensive baseline. Next
// returns ok=false once the space is exhausted, regardless of any
// external budget. Configurations
// already observed (e.g. replayed from a warm start) are skipped, so a
// resumed enumeration continues instead of re-measuring its prefix.
type ExhaustiveSearcher struct {
	order []Config
	next  int
	seen  map[Config]bool
}

// NewExhaustiveSearcher builds an exhaustive searcher over sp.
func NewExhaustiveSearcher(sp Space) *ExhaustiveSearcher {
	return &ExhaustiveSearcher{order: sp.Enumerate(), seen: map[Config]bool{}}
}

// Next proposes the next unvisited configuration in enumeration order.
func (e *ExhaustiveSearcher) Next() (Config, bool) {
	for e.next < len(e.order) {
		c := e.order[e.next]
		e.next++
		if !e.seen[c] {
			return c, true
		}
	}
	return Config{}, false
}

// Observe marks a configuration as evaluated so the walk skips it.
func (e *ExhaustiveSearcher) Observe(c Config, _ float64) {
	e.seen[c] = true
}
