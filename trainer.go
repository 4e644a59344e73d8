package argo

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"argo/internal/ddp"
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
	// Shard s belongs to replica s mod n, and a replica reads the rows of
	// other replicas' shards through the halo exchange, which counts
	// that traffic; every shard's features are loaded once into this
	// process. Training losses match the single-store run on the same
	// configuration to float precision.
	Shards *graph.ShardSet
	// Transport selects the exchange transport of a sharded run:
	// "" or "inproc" (direct calls within this address space) or "tcp"
	// (batched messages framed over loopback sockets — the seam a
	// multi-host deployment plugs into). Loss parity holds on both.
	Transport string
	// SamplingRegime selects how a sharded run draws mini-batches:
	// "" or "exact" samples the assembled global topology (losses
	// bit-identical to single-store), "local" samples partition-locally
	// (each replica within its shards' owned + 1-hop halo rows — the
	// Cluster-GCN regime, trading a bounded accuracy perturbation for a
	// working set bounded to the replica's partition). "local" requires
	// Shards and a *sampler.Neighbor Sampler, whose fanouts the
	// partition-local samplers take.
	SamplingRegime string
}

// HaloStats is the halo-exchange traffic summary of a sharded run.
type HaloStats = ddp.HaloStats

// ExchangeStats is the whole-run exchange traffic summary: totals plus
// the directed per-peer matrix in deterministic (From, To) order,
// accumulated across the auto-tuner's process-count changes.
type ExchangeStats = ddp.ExchangeStats

// PeerTraffic is one directed (from, to) edge of the exchange's
// traffic matrix.
type PeerTraffic = ddp.PeerTraffic

// GNNTrainer adapts the real multi-process training engine to the
// TrainStep contract. It builds one engine for the whole run — one
// parameter set, one optimizer — and when the tuner picks a different
// configuration it reconfigures that engine's (n, s, t) in place (paper
// §VI-F). The engine's s and t are worker-goroutine counts; no OS
// thread is pinned to a core.
type GNNTrainer struct {
	opts   GNNTrainerOptions
	regime engine.SamplingRegime

	cfg    Config
	eng    *engine.Engine
	losses []float64 // one mean loss per epoch trained

	// exchange is the current halo exchange (sharded runs only); retired
	// accumulates the traffic of exchanges retired by process-count
	// changes — peer edges merged by (from, to), so a change adds to the
	// matrix rather than resetting it — and ExchangeStats covers the
	// whole run.
	exchange *ddp.HaloExchange
	retired  ddp.ExchangeStats
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
	// The transport is built on every process-count change; an unknown
	// name must fail here, not inside the tuner's first search epoch.
	tr, err := ddp.NewTransport(opts.Transport)
	if err != nil {
		return nil, err
	}
	tr.Close()
	return &GNNTrainer{opts: opts, regime: regime,
		retired: ddp.ExchangeStats{Transport: cmp.Or(opts.Transport, "inproc")}}, nil
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

// traffic is the whole-run exchange traffic: every retired exchange's
// plus the current one's.
func (t *GNNTrainer) traffic() ddp.ExchangeStats {
	out := t.retired
	if t.exchange != nil {
		out.Add(t.exchange.Summary())
	}
	return out
}

// ExchangeStats reports the whole-run exchange traffic of a sharded run
// (totals + deterministic per-peer matrix, accumulated across tuner
// reconfigurations), or nil for single-store runs. Attach it to a
// Report's Exchange field to persist it with the run.
func (t *GNNTrainer) ExchangeStats() *ExchangeStats {
	if t.opts.Shards == nil {
		return nil
	}
	out := t.traffic()
	return &out
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
// for every later cfg, so the weights, the optimizer and the replicas'
// feature caches carry across the tuner's moves (paper §VI-F). A
// sharded run rebuilds the replica→shard mapping and its exchange (and,
// under the local regime, the partition samplers and owned target sets
// that follow it) only when the process count changes; the retired
// exchange's traffic is folded into the run totals and its transport
// closed.
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
	var exchange *ddp.HaloExchange
	fail := func(err error) error {
		if exchange != nil {
			exchange.Close()
		}
		return err
	}
	if t.eng != nil && cfg.Procs == t.cfg.Procs {
		old := t.eng.Config()
		ecfg.Sources, ecfg.LocalSamplers, ecfg.LocalTargets = old.Sources, old.LocalSamplers, old.LocalTargets
	} else if t.opts.Shards != nil {
		var err error
		ecfg.Sources, exchange, err = engine.NewShardSourcesOpts(t.opts.Shards, cfg.Procs,
			engine.ShardSourceOptions{Transport: t.opts.Transport})
		if err != nil {
			return err
		}
		if t.regime == engine.RegimeLocal {
			// NewGNNTrainer admits the local regime only over a neighbor
			// sampler, whose fanouts the partition samplers take.
			fanouts := t.opts.Sampler.(*sampler.Neighbor).Fanouts
			setup, err := engine.NewPartitionSetup(t.opts.Shards, t.opts.Dataset, cfg.Procs, fanouts)
			if err != nil {
				return fail(err)
			}
			ecfg.LocalSamplers, ecfg.LocalTargets = setup.Samplers, setup.Targets
		}
	}
	if t.eng == nil {
		eng, err := engine.New(ecfg)
		if err != nil {
			return fail(err)
		}
		t.eng = eng
	} else if err := t.eng.Reconfigure(ecfg); err != nil {
		return fail(err)
	}
	if exchange != nil {
		t.retireExchange()
		t.exchange = exchange
	}
	t.cfg = cfg
	return nil
}

// retireExchange folds the current exchange's traffic into the run
// totals and shuts its transport down.
func (t *GNNTrainer) retireExchange() {
	if t.exchange != nil {
		t.retired = t.traffic()
		t.exchange.Close()
		t.exchange = nil
	}
}

// Close retires the exchange, so ExchangeStats stays complete after
// Close, and drops the engine.
func (t *GNNTrainer) Close() error {
	t.retireExchange()
	t.eng = nil
	return nil
}
