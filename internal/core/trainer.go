// Package core wires ARGO's runtime components together: the
// Multi-Process Engine (n synchronized training replicas over the engine
// package) and the Core-Binder (virtual-core accounting through
// platform.Allocator). The public package argo at the module root wraps
// this with the paper's user-facing API.
package core

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"argo/internal/ddp"
	"argo/internal/engine"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/platform"
	"argo/internal/sampler"
	"argo/internal/search"
)

// TrainerOptions configures a real (not simulated) GNN training job that
// ARGO manages.
type TrainerOptions struct {
	Dataset   *graph.Dataset
	Sampler   sampler.Sampler
	Model     nn.ModelSpec
	BatchSize int
	LR        float64
	Seed      int64
	// Binder supplies the virtual cores processes are bound to. Defaults
	// to an allocator over a machine with as many cores as the largest
	// configuration can use.
	Binder *platform.Allocator
	// Shards switches on the shard-aware training path: Dataset must
	// then be the set's Skeleton() (topology + splits, no features), the
	// sampler must be built over the skeleton's graph, and every replica
	// maps only its own shards, exchanging halo features through a
	// ddp.HaloExchange that is rebuilt whenever the auto-tuner changes
	// the process count (shard→replica ownership is shard index mod n).
	Shards *graph.ShardSet
	// Transport names the ddp transport carrying the exchange of a
	// sharded run: "" or "inproc" (direct calls), or "tcp" (loopback
	// sockets, the cross-address-space seam).
	Transport string
	// NoOverlap disables the exchange/sampling overlap (performance
	// knob only; losses are bit-identical either way).
	NoOverlap bool
	// SamplingRegime selects exact (default) or partition-local
	// sampling for sharded runs. The local regime needs Shards and
	// LocalFanouts; the per-replica partition samplers and owned
	// target sets are rebuilt alongside the exchange whenever the
	// auto-tuner changes the process count.
	SamplingRegime engine.SamplingRegime
	// LocalFanouts configures the partition samplers' layered fanouts
	// (local regime only; typically the exact sampler's fanouts so the
	// regimes compare like for like).
	LocalFanouts []int
}

// Trainer runs mini-batch GNN training under changing ARGO
// configurations, preserving training state across re-launches: when
// the auto-tuner picks a different configuration, the current weights
// and optimizer state are exported from the old Multi-Process Engine and
// imported into the new one (the re-launch described in paper §VI-F).
type Trainer struct {
	opts TrainerOptions

	cfg     search.Config
	eng     *engine.Engine
	cores   []platform.CoreID
	weights *engine.State // carried into the next engine: weights and optimizer together
	epoch   int
	losses  []float64

	// exchange is the current halo exchange (sharded runs only); retired
	// accumulates the traffic of exchanges retired by re-launches — peer
	// edges merged by (from, to), so a process-count change adds to the
	// matrix rather than resetting it — and HaloStats/ExchangeStats cover
	// the whole run.
	exchange *ddp.HaloExchange
	retired  ddp.ExchangeStats
	lastSnap ddp.HaloStats // whole-run total at the previous SnapshotHaloStats
}

// NewTrainer validates opts and returns an idle trainer.
func NewTrainer(opts TrainerOptions) (*Trainer, error) {
	if opts.Dataset == nil || opts.Sampler == nil {
		return nil, fmt.Errorf("core: dataset and sampler are required")
	}
	if opts.BatchSize < 1 {
		return nil, fmt.Errorf("core: batch size %d", opts.BatchSize)
	}
	if opts.SamplingRegime == engine.RegimeLocal {
		if opts.Shards == nil {
			return nil, fmt.Errorf("core: the local sampling regime needs a shard set")
		}
		if len(opts.LocalFanouts) == 0 {
			return nil, fmt.Errorf("core: the local sampling regime needs LocalFanouts")
		}
	}
	if opts.Binder == nil {
		spec := platform.Spec{Name: "virtual", Sockets: 1, CoresPerSocket: 8 * 20}
		opts.Binder = platform.NewAllocator(spec)
	}
	tr := &Trainer{opts: opts}
	tr.retired.Transport = cmp.Or(opts.Transport, "inproc")
	return tr, nil
}

// Epoch returns how many epochs have been trained so far.
func (tr *Trainer) Epoch() int { return tr.epoch }

// Config returns the currently bound configuration.
func (tr *Trainer) Config() search.Config { return tr.cfg }

// Step trains `epochs` epochs under cfg and returns the mean wall-clock
// epoch time in seconds. It satisfies the argo.TrainStep contract:
// cancellation is honoured between epochs, returning ctx's error without
// losing the model state accumulated so far.
func (tr *Trainer) Step(ctx context.Context, cfg search.Config, epochs int) (float64, error) {
	if epochs < 1 {
		return 0, nil
	}
	if err := tr.bind(cfg); err != nil {
		return 0, err
	}
	var total time.Duration
	for i := 0; i < epochs; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		res, err := tr.eng.RunEpoch(tr.epoch)
		if err != nil {
			return 0, err
		}
		tr.epoch++
		tr.losses = append(tr.losses, res.MeanLoss)
		total += res.Duration
	}
	return total.Seconds() / float64(epochs), nil
}

// LossHistory returns the mean training loss of every epoch trained so
// far, in order — the convergence trace the shard-parity check
// compares between sharded and single-store runs.
func (tr *Trainer) LossHistory() []float64 {
	out := make([]float64, len(tr.losses))
	copy(out, tr.losses)
	return out
}

// traffic is the whole-run exchange traffic: every retired exchange's
// plus the current one's.
func (tr *Trainer) traffic() ddp.ExchangeStats {
	out := tr.retired
	if tr.exchange != nil {
		out.Add(tr.exchange.Summary())
	}
	return out
}

// HaloStats returns the accumulated halo-exchange traffic of a sharded
// run (zero for single-store runs), summed across auto-tuner
// re-launches.
func (tr *Trainer) HaloStats() ddp.HaloStats { return tr.traffic().Totals() }

// SnapshotHaloStats returns the halo traffic accumulated since the
// previous SnapshotHaloStats call (or since construction) and advances
// the snapshot mark. It is built on the whole-run totals, so interval
// curves (e.g. per-epoch traffic for the regime study) stay correct
// across auto-tuner re-launches that retire and rebuild the exchange;
// HaloStats keeps reporting the untouched cumulative view.
func (tr *Trainer) SnapshotHaloStats() ddp.HaloStats {
	total := tr.HaloStats()
	delta := total
	delta.Sub(tr.lastSnap)
	tr.lastSnap = total
	return delta
}

// ExchangeStats returns the whole-run exchange traffic summary of a
// sharded run — totals plus the directed per-peer matrix in
// deterministic (From, To) order, accumulated across auto-tuner
// re-launches — or nil for single-store runs.
func (tr *Trainer) ExchangeStats() *ddp.ExchangeStats {
	if tr.opts.Shards == nil {
		return nil
	}
	out := tr.traffic()
	return &out
}

// Evaluate reports validation accuracy under the current weights. Data-
// source failures (possible on the sharded path) surface as errors, not
// as a silent zero accuracy.
func (tr *Trainer) Evaluate() (float64, error) {
	if tr.eng == nil {
		if err := tr.bind(search.Config{Procs: 1, SampleCores: 1, TrainCores: 1}); err != nil {
			return 0, err
		}
	}
	return tr.eng.Evaluate(tr.opts.Dataset.ValIdx)
}

// Engine exposes the current Multi-Process Engine (nil before first use).
func (tr *Trainer) Engine() *engine.Engine { return tr.eng }

// Model returns the current model (replica 0 — replicas stay
// bit-identical), binding a minimal single-process engine first if the
// trainer has never run. The checkpoint path uses this to persist final
// weights for the inference server.
func (tr *Trainer) Model() (*nn.GNN, error) {
	if tr.eng == nil {
		if err := tr.bind(search.Config{Procs: 1, SampleCores: 1, TrainCores: 1}); err != nil {
			return nil, err
		}
	}
	return tr.eng.Model(0), nil
}

// bind (re-)launches the Multi-Process Engine for cfg: release the old
// core binding, allocate cfg's cores, rebuild the engine, and carry the
// model weights and optimizer state over.
func (tr *Trainer) bind(cfg search.Config) error {
	if tr.eng != nil && cfg == tr.cfg {
		return nil
	}
	if tr.eng != nil {
		tr.weights = tr.eng.ExportState()
		if err := tr.opts.Binder.Release(tr.cores); err != nil {
			return err
		}
		tr.cores = nil
		tr.eng = nil
	}
	cores, err := tr.opts.Binder.Allocate(cfg.Procs * (cfg.SampleCores + cfg.TrainCores))
	if err != nil {
		return fmt.Errorf("core: binding %s: %w", cfg, err)
	}
	// Sharded runs rebuild the replica→shard mapping for the new process
	// count; the retired exchange's traffic (totals and per-peer rows)
	// is folded into tr.retired so the re-launch doesn't lose it, and its
	// transport is closed.
	var sources []engine.DataSource
	var exchange *ddp.HaloExchange
	fail := func(err error) error {
		if exchange != nil {
			exchange.Close()
		}
		if relErr := tr.opts.Binder.Release(cores); relErr != nil {
			return fmt.Errorf("core: %v (and release failed: %v)", err, relErr)
		}
		return err
	}
	var setup *engine.PartitionSetup
	if tr.opts.Shards != nil {
		sources, exchange, err = engine.NewShardSourcesOpts(tr.opts.Shards, cfg.Procs,
			engine.ShardSourceOptions{Transport: tr.opts.Transport})
		if err != nil {
			return fail(err)
		}
		// Local regime: the partition samplers and owned target sets
		// follow the same shard→replica mapping as the sources, so they
		// are rebuilt together on every process-count change.
		if tr.opts.SamplingRegime == engine.RegimeLocal {
			setup, err = engine.NewPartitionSetup(tr.opts.Shards, tr.opts.Dataset, cfg.Procs, tr.opts.LocalFanouts)
			if err != nil {
				return fail(err)
			}
		}
	}
	ecfg := engine.Config{
		Dataset:        tr.opts.Dataset,
		Sampler:        tr.opts.Sampler,
		Model:          tr.opts.Model,
		BatchSize:      tr.opts.BatchSize,
		LR:             tr.opts.LR,
		NumProcs:       cfg.Procs,
		SampleWorkers:  cfg.SampleCores,
		TrainWorkers:   cfg.TrainCores,
		Seed:           tr.opts.Seed,
		Sources:        sources,
		NoOverlap:      tr.opts.NoOverlap,
		SamplingRegime: tr.opts.SamplingRegime,
	}
	if setup != nil {
		ecfg.LocalSamplers = setup.Samplers
		ecfg.LocalTargets = setup.Targets
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		return fail(err)
	}
	if tr.weights != nil {
		if err := eng.ImportState(tr.weights); err != nil {
			return fail(err)
		}
	}
	tr.retireExchange()
	tr.exchange = exchange
	tr.eng = eng
	tr.cores = cores
	tr.cfg = cfg
	return nil
}

// retireExchange folds the current exchange's traffic into the run
// totals and shuts its transport down.
func (tr *Trainer) retireExchange() {
	if tr.exchange != nil {
		tr.retired = tr.traffic()
		tr.exchange.Close()
		tr.exchange = nil
	}
}

// Close releases the trainer's core binding and retires the exchange,
// so ExchangeStats stays complete after Close.
func (tr *Trainer) Close() error {
	tr.retireExchange()
	if tr.cores == nil {
		return nil
	}
	err := tr.opts.Binder.Release(tr.cores)
	tr.cores = nil
	tr.eng = nil
	return err
}
