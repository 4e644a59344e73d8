// Package argo is a runtime system for scalable mini-batch GNN training
// on multi-core processors — a from-scratch Go reproduction of
//
//	Lin et al., "ARGO: An Auto-Tuning Runtime System for Scalable GNN
//	Training on Multi-Core Processor", IPDPS 2024 (arXiv:2402.03671).
//
// ARGO improves platform utilisation by running n synchronized training
// processes whose memory-intensive phases overlap other processes'
// compute phases, giving each process s sampling and t training workers
// (goroutine counts: no OS thread is pinned to a core yet), and
// auto-tuning the (n, s, t) configuration online. The tuning policy is a
// Strategy chosen by name: the paper's Bayesian-optimization auto-tuner
// is the default, and simulated annealing, random search and exhaustive
// enumeration (its Table IV/V/VI comparisons) are the alternatives —
// see Strategies. Training semantics are preserved: the
// global mini-batch is split n ways and gradients are averaged
// synchronously, so the effective batch size never changes.
//
// Typical use mirrors the paper's Listing 1:
//
//	trainer, _ := argo.NewGNNTrainer(argo.GNNTrainerOptions{ ... })
//	rt, _ := argo.NewRuntime(200, 20,
//	        argo.WithTotalCores(64),
//	        argo.WithStrategy(argo.StrategyBayesOpt))
//	report, _ := rt.Run(ctx, trainer.Step)
//
// Run executes Algorithm 1 from the paper: for the first numSearches
// epochs the strategy proposes a configuration, observes the epoch time,
// and updates its model; the remaining epochs reuse the best
// configuration found. The loop honours ctx between epochs, streams an
// Event per epoch (WithEvents), and the final Report round-trips through
// JSON so a later run can warm-start from it (WithWarmStart).
package argo

import (
	"context"
	"fmt"
	"runtime"

	"argo/internal/search"
)

// Config is one point of ARGO's design space: the number of GNN training
// processes and the sampling/training cores bound to each.
type Config = search.Config

// Space is the discrete feasible configuration space.
type Space = search.Space

// DefaultSpace returns the paper-matched space bounds for a machine with
// the given total core count.
func DefaultSpace(totalCores int) Space { return search.DefaultSpace(totalCores) }

// TrainStep runs `epochs` training epochs under cfg and returns the mean
// epoch time in seconds. ARGO calls it once per epoch, both while tuning
// and through the reuse tail, so implementations must carry model state
// across calls (GNNTrainer does). The context is the one passed to Run;
// long steps should abort promptly when it is cancelled.
type TrainStep func(ctx context.Context, cfg Config, epochs int) (secondsPerEpoch float64, err error)

// Runtime drives auto-tuned training. Create one per training job with
// NewRuntime.
type Runtime struct {
	epochs      int
	numSearches int
	strategy    string
	totalCores  int
	seed        int64
	space       Space
	haveSpace   bool
	logf        func(format string, args ...any)
	onEvent     EventFunc
	earlyStop   int
	warmStart   []EpochRecord
}

// NewRuntime returns a Runtime that trains for `epochs` total epochs,
// spending the first `numSearches` of them evaluating tuning-strategy
// proposals (paper Table VI budgets ~5 % of the space). Behaviour is
// customised with functional options: WithStrategy, WithTotalCores,
// WithSpace, WithSeed, WithLogf, WithEvents, WithEarlyStop,
// WithWarmStart.
func NewRuntime(epochs, numSearches int, opts ...Option) (*Runtime, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("argo: Epochs must be ≥1, got %d", epochs)
	}
	if numSearches < 1 {
		return nil, fmt.Errorf("argo: NumSearches must be ≥1, got %d", numSearches)
	}
	if numSearches > epochs {
		return nil, fmt.Errorf("argo: NumSearches %d exceeds Epochs %d", numSearches, epochs)
	}
	r := &Runtime{
		epochs:      epochs,
		numSearches: numSearches,
		strategy:    StrategyBayesOpt,
	}
	for _, opt := range opts {
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	if !r.haveSpace {
		if r.totalCores == 0 {
			r.totalCores = runtime.NumCPU()
		}
		r.space = search.DefaultSpace(r.totalCores)
	}
	if r.space.Size() == 0 {
		return nil, fmt.Errorf("argo: no feasible configuration on %d cores", r.totalCores)
	}
	return r, nil
}

// SpaceSize returns the number of feasible configurations.
func (r *Runtime) SpaceSize() int { return r.space.Size() }

// StrategyName returns the canonical name of the tuning strategy this
// runtime will use.
func (r *Runtime) StrategyName() string { return r.strategy }

// emit streams e to the event callback, if any.
func (r *Runtime) emit(e Event) {
	if r.onEvent != nil {
		r.onEvent(e)
	}
}

// Run executes the paper's Algorithm 1 against the training function:
// numSearches single-epoch strategy probes, then per-epoch reuse of the
// best configuration found. Cancellation is honoured between epochs: on
// ctx expiry Run stops cleanly and returns the partial Report together
// with the context's error.
func (r *Runtime) Run(ctx context.Context, train TrainStep) (Report, error) {
	rep := Report{Strategy: r.strategy}
	// Warm-start observations must inform the strategy without consuming
	// the run's own online-learning budget, so the strategy is built with
	// a budget covering both. Records outside this run's space (e.g. a
	// report from a larger machine) are dropped: replaying them could
	// make an infeasible configuration the incumbent and drive the whole
	// reuse phase with it.
	var warm []EpochRecord
	for _, h := range r.warmStart {
		if r.space.Feasible(h.Config) {
			warm = append(warm, h)
		}
	}
	strat, err := NewStrategy(r.strategy, r.space, r.numSearches+len(warm), r.seed)
	if err != nil {
		return rep, err
	}
	tuning := search.Tuning{Strategy: strat}
	for _, h := range warm {
		tuning.Observe(h.Config, h.Seconds)
	}
	if len(r.warmStart) > 0 && r.logf != nil {
		if dropped := len(r.warmStart) - len(warm); dropped > 0 {
			r.logf("argo: warm start with %d prior observations (%d infeasible here, dropped)", len(warm), dropped)
		} else {
			r.logf("argo: warm start with %d prior observations", len(warm))
		}
	}

	// A search error still leaves the incumbent found so far in the
	// partial report: it must not lose completed search observations.
	var searchErr error
	sinceImprove := 0
	for rep.SearchEpochs < r.numSearches {
		epoch := rep.SearchEpochs
		if err := ctx.Err(); err != nil {
			searchErr = fmt.Errorf("argo: search epoch %d: %w", epoch, err)
			break
		}
		cfg, ok := tuning.Next()
		if !ok {
			break // strategy exhausted (e.g. exhaustive over a small space)
		}
		secs, err := train(ctx, cfg, 1)
		if err != nil {
			searchErr = fmt.Errorf("argo: search epoch %d (%s): %w", epoch, cfg, err)
			break
		}
		improved := tuning.Observe(cfg, secs)
		rep.History = append(rep.History, EpochRecord{Epoch: epoch, Config: cfg, Seconds: secs, Phase: PhaseSearch})
		if search.IsFinite(secs) {
			rep.TotalSeconds += secs
		}
		rep.SearchEpochs++
		best, bestSecs := tuning.Best()
		if r.logf != nil {
			r.logf("argo: search %d/%d %s epoch=%.3fs", epoch+1, r.numSearches, cfg, secs)
		}
		r.emit(Event{
			Strategy: r.strategy, Epoch: epoch, Phase: PhaseSearch,
			Config: cfg, Seconds: secs,
			Best: best, BestSeconds: bestSecs, Searched: rep.SearchEpochs,
		})
		// A crashed measurement never improves, so a run whose
		// measurements all crash still counts as stale.
		if improved {
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		if r.earlyStop > 0 && sinceImprove >= r.earlyStop {
			if r.logf != nil {
				r.logf("argo: early stop after %d stale search epochs", sinceImprove)
			}
			break
		}
	}
	rep.Best, rep.BestEpochSeconds = tuning.Best()
	rep.TunerOverhead = tuning.Overhead()
	if searchErr != nil {
		return rep, searchErr
	}
	if rep.SearchEpochs == 0 && len(warm) == 0 {
		return rep, fmt.Errorf("argo: strategy %q made no proposals", r.strategy)
	}
	// Every measurement may have been non-finite (the crashed-epoch
	// signal): there is then no incumbent and Best is the zero config,
	// which must never drive the reuse phase.
	if !r.space.Feasible(rep.Best) {
		return rep, fmt.Errorf("argo: no feasible incumbent after %d search epochs (all measurements crashed?)", rep.SearchEpochs)
	}

	// Reuse phase: train the remaining epochs under the best
	// configuration, one epoch at a time, recording each epoch's actual
	// duration (not a duplicated mean) and honouring cancellation between
	// epochs. BestEpochSeconds keeps the search-phase incumbent;
	// ReuseEpochSeconds reports the reuse-phase mean separately. A
	// configuration that starts crashing after the search phase must not
	// silently burn the rest of the run: maxCrashedReuse consecutive
	// non-finite measurements abort with the partial report.
	const maxCrashedReuse = 3
	var reuseTotal float64
	reuseEpochs, crashedRun := 0, 0
	for epoch := rep.SearchEpochs; epoch < r.epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return rep, fmt.Errorf("argo: reuse epoch %d: %w", epoch, err)
		}
		secs, err := train(ctx, rep.Best, 1)
		if err != nil {
			return rep, fmt.Errorf("argo: reuse phase (%s): %w", rep.Best, err)
		}
		rep.History = append(rep.History, EpochRecord{Epoch: epoch, Config: rep.Best, Seconds: secs, Phase: PhaseReuse})
		if search.IsFinite(secs) {
			rep.TotalSeconds += secs
			reuseTotal += secs
			reuseEpochs++
			rep.ReuseEpochSeconds = reuseTotal / float64(reuseEpochs)
			crashedRun = 0
		} else {
			crashedRun++
		}
		// Emit before any abort so the event stream stays one-to-one with
		// the returned History.
		r.emit(Event{
			Strategy: r.strategy, Epoch: epoch, Phase: PhaseReuse,
			Config: rep.Best, Seconds: secs,
			Best: rep.Best, BestSeconds: rep.BestEpochSeconds, Searched: rep.SearchEpochs,
		})
		if crashedRun >= maxCrashedReuse {
			return rep, fmt.Errorf("argo: %d consecutive crashed reuse epochs under %s", crashedRun, rep.Best)
		}
	}
	if reuseEpochs > 0 && r.logf != nil {
		r.logf("argo: reuse %s for %d epochs, mean epoch=%.3fs", rep.Best, reuseEpochs, rep.ReuseEpochSeconds)
	}
	return rep, nil
}
