package argo

import (
	"context"
	"fmt"
	"time"

	"argo/internal/engine"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// GNNTrainerOptions configures a real GNN training job managed by ARGO.
type GNNTrainerOptions struct {
	// Dataset is the materialised dataset every replica reads, one
	// feature table.
	Dataset   *graph.Dataset
	Sampler   sampler.Sampler
	Model     nn.ModelSpec
	BatchSize int
	LR        float64
	Seed      int64
}

// GNNTrainer adapts the real multi-process training engine to the
// TrainStep contract. It builds one engine for the whole run — one
// parameter set, one optimizer — and when the tuner picks a different
// configuration it reconfigures that engine's (n, s, t) in place (paper
// §VI-F). The engine's s and t are worker-goroutine counts; no OS
// thread is pinned to a core.
type GNNTrainer struct {
	opts   GNNTrainerOptions
	cfg    Config
	eng    *engine.Engine
	losses []float64 // one mean loss per epoch trained
}

// NewGNNTrainer validates opts and returns an idle trainer.
func NewGNNTrainer(opts GNNTrainerOptions) (*GNNTrainer, error) {
	if opts.Dataset == nil || opts.Sampler == nil || opts.BatchSize < 1 {
		return nil, fmt.Errorf("argo: a dataset, a sampler and a positive batch size are required")
	}
	return &GNNTrainer{opts: opts}, nil
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
// source failures surface as errors, not as a silent zero accuracy.
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
// tuner's moves (paper §VI-F).
func (t *GNNTrainer) bind(cfg Config) error {
	if t.eng != nil && cfg == t.cfg {
		return nil
	}
	ecfg := engine.Config{
		Dataset:       t.opts.Dataset,
		Sampler:       t.opts.Sampler,
		Model:         t.opts.Model,
		BatchSize:     t.opts.BatchSize,
		LR:            t.opts.LR,
		NumProcs:      cfg.Procs,
		SampleWorkers: cfg.SampleCores,
		TrainWorkers:  cfg.TrainCores,
		Seed:          t.opts.Seed,
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

// Close stops the engine's sampling ahead and drops the engine.
func (t *GNNTrainer) Close() error {
	if t.eng != nil {
		t.eng.Close()
	}
	t.eng = nil
	return nil
}
