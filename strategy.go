package argo

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"argo/internal/anneal"
	"argo/internal/bayesopt"
	"argo/internal/search"
)

// Strategy is the pluggable auto-tuning policy behind Runtime.Run: the
// runtime calls Next to obtain the configuration for the next training
// epoch, measures the epoch, and feeds the result back through Observe.
// See search.Strategy for the contract each method carries.
type Strategy = search.Strategy

// StrategyFactory builds a Strategy over a feasible space with an
// observation budget and a seed for its random draws.
type StrategyFactory func(sp Space, budget int, seed int64) Strategy

// Incumbent tracks the best finite observation — the shared half of the
// Strategy contract (non-finite measurements never become the incumbent,
// and Best returns zero values until a finite one exists). Custom
// strategies can embed it and forward Observe/Best.
type Incumbent = search.Incumbent

// Built-in strategy names.
const (
	StrategyBayesOpt   = "bayesopt"   // GP surrogate + expected improvement (paper Algorithm 1)
	StrategyAnneal     = "anneal"     // simulated annealing (paper Tables IV/V baseline)
	StrategyRandom     = "random"     // uniform random search (acquisition ablation)
	StrategyExhaustive = "exhaustive" // enumerate the whole space (paper's intractable optimum)
)

var (
	strategyMu  sync.RWMutex
	strategyReg = map[string]StrategyFactory{}
)

func init() {
	MustRegisterStrategy(StrategyBayesOpt, func(sp Space, budget int, seed int64) Strategy {
		return bayesopt.NewTuner(sp, budget, seed)
	})
	MustRegisterStrategy(StrategyAnneal, func(sp Space, budget int, seed int64) Strategy {
		return anneal.NewAnnealer(sp, budget, rand.New(rand.NewSource(seed)))
	})
	MustRegisterStrategy(StrategyRandom, func(sp Space, budget int, seed int64) Strategy {
		return search.NewRandomSearcher(sp, budget, rand.New(rand.NewSource(seed)))
	})
	MustRegisterStrategy(StrategyExhaustive, func(sp Space, budget int, seed int64) Strategy {
		return search.NewExhaustiveSearcher(sp)
	})
}

// RegisterStrategy adds a named strategy to the registry. Names are
// case-insensitive and must be unique; registering an empty name, a nil
// factory, or a duplicate is an error.
func RegisterStrategy(name string, f StrategyFactory) error {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return fmt.Errorf("argo: empty strategy name")
	}
	if f == nil {
		return fmt.Errorf("argo: nil factory for strategy %q", name)
	}
	strategyMu.Lock()
	defer strategyMu.Unlock()
	if _, dup := strategyReg[name]; dup {
		return fmt.Errorf("argo: strategy %q already registered", name)
	}
	strategyReg[name] = f
	return nil
}

// MustRegisterStrategy is RegisterStrategy, panicking on error — for use
// from package init functions.
func MustRegisterStrategy(name string, f StrategyFactory) {
	if err := RegisterStrategy(name, f); err != nil {
		panic(err)
	}
}

// Strategies lists the registered strategy names in sorted order.
func Strategies() []string {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	names := make([]string, 0, len(strategyReg))
	for n := range strategyReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// strategyRegistered reports whether name resolves in the registry.
func strategyRegistered(name string) bool {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	_, ok := strategyReg[strings.ToLower(strings.TrimSpace(name))]
	return ok
}

// NewStrategy instantiates a registered strategy by name over sp with the
// given observation budget and seed.
func NewStrategy(name string, sp Space, budget int, seed int64) (Strategy, error) {
	strategyMu.RLock()
	f, ok := strategyReg[strings.ToLower(strings.TrimSpace(name))]
	strategyMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("argo: unknown strategy %q (registered: %s)", name, strings.Join(Strategies(), ", "))
	}
	return f(sp, budget, seed), nil
}
