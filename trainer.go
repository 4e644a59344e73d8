package argo

import (
	"context"
	"fmt"
	"slices"
	"time"

	"argo/internal/engine"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// GNNTrainerOptions configures a real GNN training job managed by ARGO.
type GNNTrainerOptions struct {
	Dataset   *graph.Dataset
	Sampler   sampler.Sampler
	Model     nn.ModelSpec
	BatchSize int
	LR        float64
	Seed      int64
	// Shards switches on shard-aware training: Dataset must be the
	// set's Skeleton() and the sampler must be built over its graph.
	// Every shard's features and labels are loaded once into this
	// process, and every replica reads them directly. Training losses
	// match the single-store run on the same configuration to float
	// precision.
	Shards *graph.ShardSet
	// SamplingRegime selects how a sharded run draws mini-batches:
	// "" or "exact" samples the assembled global topology (losses
	// bit-identical to single-store), "local" samples partition-locally
	// (shard s belongs to replica s mod n, which samples within its
	// shards' owned + 1-hop halo rows — the Cluster-GCN regime, trading
	// a bounded accuracy perturbation for batches bounded to the
	// replica's partition). "local" requires Shards and a
	// *sampler.Neighbor Sampler, whose fanouts the partition-local
	// samplers take.
	SamplingRegime string
}

// GNNTrainer adapts the real multi-process training engine to the
// TrainStep contract. It builds one engine for the whole run — one
// parameter set, one optimizer — and when the tuner picks a different
// configuration it reconfigures that engine's (n, s, t) in place (paper
// §VI-F). The engine's s and t are worker-goroutine counts; no OS
// thread is pinned to a core.
type GNNTrainer struct {
	opts   GNNTrainerOptions
	regime engine.SamplingRegime

	// source is a sharded run's one data source, built once and read
	// by every replica; nil on a single store.
	source engine.DataSource

	cfg    Config
	eng    *engine.Engine
	losses []float64 // one mean loss per epoch trained
}

// NewGNNTrainer validates opts and returns an idle trainer.
func NewGNNTrainer(opts GNNTrainerOptions) (*GNNTrainer, error) {
	if opts.Dataset == nil || opts.Sampler == nil || opts.BatchSize < 1 {
		return nil, fmt.Errorf("argo: a dataset, a sampler and a positive batch size are required")
	}
	regime, err := engine.ParseRegime(opts.SamplingRegime)
	if err != nil {
		return nil, err
	}
	if _, ok := opts.Sampler.(*sampler.Neighbor); regime == engine.RegimeLocal && (opts.Shards == nil || !ok) {
		return nil, fmt.Errorf("argo: the local sampling regime needs a shard set and a neighbor sampler")
	}
	t := &GNNTrainer{opts: opts, regime: regime}
	if opts.Shards != nil {
		if t.source, err = engine.NewShardSource(opts.Shards); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Step implements TrainStep: it trains `epochs` epochs under cfg and
// returns the mean wall-clock epoch time in seconds. Cancellation is
// honoured between epochs, returning ctx's error without losing the
// model state accumulated so far.
func (t *GNNTrainer) Step(ctx context.Context, cfg Config, epochs int) (float64, error) {
	if epochs < 1 {
		return 0, nil
	}
	if err := t.bind(cfg); err != nil {
		return 0, err
	}
	var total time.Duration
	for i := 0; i < epochs; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		res, err := t.eng.RunEpoch(len(t.losses))
		if err != nil {
			return 0, err
		}
		t.losses = append(t.losses, res.MeanLoss)
		total += res.Duration
	}
	return total.Seconds() / float64(epochs), nil
}

// Epochs returns how many epochs have been trained.
func (t *GNNTrainer) Epochs() int { return len(t.losses) }

// LossHistory returns the mean training loss of every epoch so far, in
// order — the convergence trace the shard-parity checks compare between
// sharded and single-store runs.
func (t *GNNTrainer) LossHistory() []float64 {
	return append(make([]float64, 0, len(t.losses)), t.losses...)
}

// launch starts a minimal single-process engine if the trainer has
// never run.
func (t *GNNTrainer) launch() error {
	if t.eng != nil {
		return nil
	}
	return t.bind(Config{Procs: 1, SampleCores: 1, TrainCores: 1})
}

// Evaluate returns validation accuracy under the current weights. Data-
// source failures (possible on the sharded path) surface as errors, not
// as a silent zero accuracy.
func (t *GNNTrainer) Evaluate() (float64, error) {
	if err := t.launch(); err != nil {
		return 0, err
	}
	return t.eng.Evaluate(t.opts.Dataset.ValIdx)
}

// SaveCheckpoint writes the current model weights (the engine's one
// parameter set) to path atomically (temp + rename, like .argograph
// saves). The written checkpoint is self-describing —
// nn.LoadModel reconstructs the architecture from it — and is what
// `argo-serve` consumes.
func (t *GNNTrainer) SaveCheckpoint(path string) error {
	if err := t.launch(); err != nil {
		return err
	}
	return t.eng.Model(0).SaveCheckpointFile(path)
}

// bind builds the engine on the first call and reconfigures it in place
// for every later cfg, so the weights and the optimizer carry across the
// tuner's moves (paper §VI-F). A sharded run hands its one shard source
// to each of the cfg.Procs replicas; only the local regime's partition
// samplers and owned target sets follow the process count, and they are
// rebuilt only when it changes.
func (t *GNNTrainer) bind(cfg Config) error {
	if t.eng != nil && cfg == t.cfg {
		return nil
	}
	ecfg := engine.Config{
		Dataset:        t.opts.Dataset,
		Sampler:        t.opts.Sampler,
		Model:          t.opts.Model,
		BatchSize:      t.opts.BatchSize,
		LR:             t.opts.LR,
		NumProcs:       cfg.Procs,
		SampleWorkers:  cfg.SampleCores,
		TrainWorkers:   cfg.TrainCores,
		Seed:           t.opts.Seed,
		SamplingRegime: t.regime,
	}
	if t.source != nil {
		ecfg.Sources = slices.Repeat([]engine.DataSource{t.source}, cfg.Procs)
	}
	if t.regime == engine.RegimeLocal {
		if t.eng != nil && cfg.Procs == t.cfg.Procs {
			old := t.eng.Config()
			ecfg.LocalSamplers, ecfg.LocalTargets = old.LocalSamplers, old.LocalTargets
		} else {
			// NewGNNTrainer admits the local regime only over a neighbor
			// sampler, whose fanouts the partition samplers take.
			fanouts := t.opts.Sampler.(*sampler.Neighbor).Fanouts
			setup, err := engine.NewPartitionSetup(t.opts.Shards, t.opts.Dataset, cfg.Procs, fanouts)
			if err != nil {
				return err
			}
			ecfg.LocalSamplers, ecfg.LocalTargets = setup.Samplers, setup.Targets
		}
	}
	if t.eng == nil {
		eng, err := engine.New(ecfg)
		if err != nil {
			return err
		}
		t.eng = eng
	} else if err := t.eng.Reconfigure(ecfg); err != nil {
		return err
	}
	t.cfg = cfg
	return nil
}

// Close drops the engine.
func (t *GNNTrainer) Close() error {
	t.eng = nil
	return nil
}
