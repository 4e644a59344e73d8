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

// Incumbent tracks the best finite observation seen so far — the shared
// half of the Strategy contract: non-finite costs (a crashed measurement)
// must never become the incumbent.
type Incumbent struct {
	best     Config
	bestY    float64
	haveBest bool
}

// Observe folds one measurement into the incumbent, ignoring non-finite
// costs.
func (in *Incumbent) Observe(c Config, y float64) {
	if !IsFinite(y) {
		return
	}
	if !in.haveBest || y < in.bestY {
		in.best, in.bestY, in.haveBest = c, y, true
	}
}

// Best returns the incumbent optimal configuration and its cost (zero
// values before the first finite observation).
func (in *Incumbent) Best() (Config, float64) { return in.best, in.bestY }

// Strategy is the pluggable auto-tuning policy: the propose/observe
// halves of one online-learning step. A driver — Run offline, the
// training runtime online — calls Next to obtain the configuration for
// the next epoch, measures it, and feeds the result back through Observe.
//
// Implementations must be deterministic given their construction seed and
// the observation sequence; they are used from a single goroutine.
type Strategy interface {
	// Next proposes the next configuration to evaluate. ok is false once
	// the strategy has nothing further to propose (its budget is
	// exhausted, or the space is fully explored).
	Next() (cfg Config, ok bool)
	// Observe records the measured epoch time (seconds) of a proposed —
	// or warm-started — configuration. Non-finite times mark a crashed
	// measurement and must not become the incumbent.
	Observe(cfg Config, seconds float64)
	// Best returns the incumbent optimum and its epoch time. Until the
	// first finite observation it must return zero values (a zero,
	// infeasible Config) — the runtime relies on this to detect a run
	// whose measurements all crashed instead of reusing a bogus
	// configuration. Embedding an Incumbent implements the rule.
	Best() (Config, float64)
	// Overhead returns the cumulative time the strategy itself consumed
	// (surrogate fits, acquisition maximisation, proposal draws) — the
	// auto-tuning overhead the paper profiles in §VI-D.
	Overhead() time.Duration
}

// Run drives s against obj offline — propose, evaluate, observe — until
// s has nothing further to propose.
func Run(s Strategy, obj Objective) Result {
	var res Result
	for {
		c, ok := s.Next()
		if !ok {
			break
		}
		y := obj.Evaluate(c)
		s.Observe(c, y)
		res.History = append(res.History, Eval{Config: c, Time: y})
		res.Evals++
	}
	res.Best, res.BestTime = s.Best()
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

	observed int
	inc      Incumbent
	overhead time.Duration
}

// NewRandomSearcher builds a random searcher over sp with the given
// evaluation budget.
func NewRandomSearcher(sp Space, budget int, rng *rand.Rand) *RandomSearcher {
	return &RandomSearcher{sp: sp, budget: budget, rng: rng, size: sp.Size(), seen: map[Config]bool{}}
}

// Next proposes the next configuration. ok is false once the budget is
// exhausted.
func (r *RandomSearcher) Next() (Config, bool) {
	start := time.Now()
	defer func() { r.overhead += time.Since(start) }()
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

// Observe records an evaluated configuration and its cost.
func (r *RandomSearcher) Observe(c Config, y float64) {
	r.observed++
	r.seen[c] = true
	r.inc.Observe(c, y)
}

// Best returns the incumbent optimal configuration and its cost.
func (r *RandomSearcher) Best() (Config, float64) { return r.inc.Best() }

// Overhead returns the cumulative time spent drawing proposals.
func (r *RandomSearcher) Overhead() time.Duration { return r.overhead }

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

	inc      Incumbent
	overhead time.Duration
}

// NewExhaustiveSearcher builds an exhaustive searcher over sp.
func NewExhaustiveSearcher(sp Space) *ExhaustiveSearcher {
	return &ExhaustiveSearcher{order: sp.Enumerate(), seen: map[Config]bool{}}
}

// Next proposes the next unvisited configuration in enumeration order.
func (e *ExhaustiveSearcher) Next() (Config, bool) {
	start := time.Now()
	defer func() { e.overhead += time.Since(start) }()
	for e.next < len(e.order) {
		c := e.order[e.next]
		e.next++
		if !e.seen[c] {
			return c, true
		}
	}
	return Config{}, false
}

// Observe records an evaluated configuration and its cost.
func (e *ExhaustiveSearcher) Observe(c Config, y float64) {
	e.seen[c] = true
	e.inc.Observe(c, y)
}

// Best returns the incumbent optimal configuration and its cost.
func (e *ExhaustiveSearcher) Best() (Config, float64) { return e.inc.Best() }

// Overhead returns the cumulative time spent iterating the enumeration.
func (e *ExhaustiveSearcher) Overhead() time.Duration { return e.overhead }
