package argo

import "fmt"

// Option configures a Runtime built with NewRuntime.
type Option func(*Runtime) error

// WithStrategy selects the tuning strategy by name (see Strategies).
// The default is StrategyBayesOpt, the paper's auto-tuner.
func WithStrategy(name string) Option {
	return func(r *Runtime) error {
		// Store the canonical form so Report.Strategy and Event.Strategy
		// compare equal to the Strategy* constants.
		c, err := canonicalStrategy(name)
		if err != nil {
			return err
		}
		r.strategy = c
		return nil
	}
}

// WithTotalCores bounds the configuration space to a machine with the
// given core count. The default is runtime.NumCPU().
func WithTotalCores(n int) Option {
	return func(r *Runtime) error {
		if n < 1 {
			return fmt.Errorf("argo: TotalCores must be ≥1, got %d", n)
		}
		r.totalCores = n
		return nil
	}
}

// WithSpace overrides the feasible configuration space entirely — for
// workloads whose space is not DefaultSpace-shaped. It takes precedence
// over WithTotalCores.
func WithSpace(sp Space) Option {
	return func(r *Runtime) error {
		if sp.Size() == 0 {
			return fmt.Errorf("argo: empty configuration space")
		}
		r.space = sp
		r.haveSpace = true
		return nil
	}
}

// WithSeed seeds the strategy's random draws. Runs with the same seed,
// space and training function are reproducible.
func WithSeed(seed int64) Option {
	return func(r *Runtime) error {
		r.seed = seed
		return nil
	}
}

// WithLogf installs a printf-style logger receiving one line per tuning
// step and one per reuse summary.
func WithLogf(logf func(format string, args ...any)) Option {
	return func(r *Runtime) error {
		r.logf = logf
		return nil
	}
}

// WithEvents installs a callback receiving one Event per completed epoch,
// streaming run progress instead of waiting for the final Report.
func WithEvents(fn EventFunc) Option {
	return func(r *Runtime) error {
		r.onEvent = fn
		return nil
	}
}

// WithEarlyStop stops the search phase once `patience` consecutive search
// epochs fail to improve the incumbent, moving straight to the reuse
// phase. Zero (the default) disables early stopping.
func WithEarlyStop(patience int) Option {
	return func(r *Runtime) error {
		if patience < 0 {
			return fmt.Errorf("argo: early-stop patience must be ≥0, got %d", patience)
		}
		r.earlyStop = patience
		return nil
	}
}

// WithWarmStart replays a previous run's search-phase observations into
// the strategy before training starts, so a new run (same machine, same
// workload shape) begins from learned knowledge instead of from scratch.
// Warm-start observations do not consume the new run's online-learning
// budget. Persist reports with Report.WriteJSON and reload with
// ReadReport.
func WithWarmStart(rep Report) Option {
	return func(r *Runtime) error {
		r.warmStart = append(r.warmStart, rep.searchHistory()...)
		return nil
	}
}
