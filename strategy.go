package argo

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"argo/internal/anneal"
	"argo/internal/bayesopt"
	"argo/internal/search"
)

// Strategy is the auto-tuning policy behind Runtime.Run: the runtime
// calls Next to obtain the configuration for the next training epoch,
// measures the epoch, and feeds the result back through Observe. A
// strategy only proposes and learns: the runtime keeps the incumbent
// (Report.Best) and the time spent in the strategy (Report.TunerOverhead).
// See search.Strategy for the contract each method carries.
type Strategy = search.Strategy

// Strategy names: the paper's auto-tuner and the three baselines it is
// compared against.
const (
	StrategyBayesOpt   = "bayesopt"   // GP surrogate + expected improvement (paper Algorithm 1)
	StrategyAnneal     = "anneal"     // simulated annealing (paper Tables IV/V baseline)
	StrategyRandom     = "random"     // uniform random search (acquisition ablation)
	StrategyExhaustive = "exhaustive" // enumerate the whole space (paper's intractable optimum)
)

// strategyNames is every strategy name, sorted.
var strategyNames = []string{StrategyAnneal, StrategyBayesOpt, StrategyExhaustive, StrategyRandom}

// Strategies lists the strategy names in sorted order.
func Strategies() []string { return slices.Clone(strategyNames) }

// canonicalStrategy returns name trimmed and lower-cased, or an error
// when that is not one of Strategies.
func canonicalStrategy(name string) (string, error) {
	c := strings.ToLower(strings.TrimSpace(name))
	if !slices.Contains(strategyNames, c) {
		return "", fmt.Errorf("argo: unknown strategy %q (known: %s)", name, strings.Join(strategyNames, ", "))
	}
	return c, nil
}

// NewStrategy instantiates a strategy by (case-insensitive) name over sp
// with the given observation budget and seed.
func NewStrategy(name string, sp Space, budget int, seed int64) (Strategy, error) {
	c, err := canonicalStrategy(name)
	if err != nil {
		return nil, err
	}
	switch c {
	case StrategyBayesOpt:
		return bayesopt.NewTuner(sp, budget, seed), nil
	case StrategyAnneal:
		return anneal.NewAnnealer(sp, budget, rand.New(rand.NewSource(seed))), nil
	case StrategyRandom:
		return search.NewRandomSearcher(sp, budget, rand.New(rand.NewSource(seed))), nil
	default:
		return search.NewExhaustiveSearcher(sp), nil
	}
}
