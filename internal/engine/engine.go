package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"argo/internal/ddp"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// Config describes one training run. NumProcs, SampleWorkers and
// TrainWorkers are ARGO's three parallelisation parameters (n, s, t).
type Config struct {
	Dataset *graph.Dataset
	Sampler sampler.Sampler
	Model   nn.ModelSpec
	// BatchSize is the GLOBAL mini-batch size B. Each of the NumProcs
	// replicas trains on ≈B/NumProcs targets per iteration, preserving
	// the algorithm's effective batch size (paper §IV-B2).
	BatchSize     int
	LR            float64
	NumProcs      int
	SampleWorkers int // sampling cores per process (s)
	TrainWorkers  int // training cores per process (t)
	Seed          int64
	// Sources, when non-nil, supplies each replica's feature/label
	// source (len must equal NumProcs); Dataset may then carry only
	// topology, splits, spec and class count. Nil means every replica
	// reads the materialised Dataset, a sharded run's included
	// (graph.ShardSet.AssembleDataset). Only the repo benchmark sets it,
	// through the deprecated NewShardSourcesOpts.
	Sources []DataSource
	// SamplingRegime selects exact (default: global batches split n
	// ways, bit-identical to single-store) or partition-local sampling.
	// The local regime requires Sources plus the per-replica Samplers
	// and Targets from NewPartitionSetup; Sampler stays the exact
	// sampler and keeps serving Evaluate. It stays only because the
	// repo benchmark's benchmark/train.go drives it (train_shard_local);
	// no command or trainer option selects it.
	SamplingRegime SamplingRegime
	// LocalSamplers[r] is replica r's partition-bounded sampler (the
	// benchmark-only local regime; len must equal NumProcs).
	LocalSamplers []sampler.Sampler
	// LocalTargets[r] is replica r's owned train targets (the
	// benchmark-only local regime; len must equal NumProcs).
	LocalTargets [][]graph.NodeID
}

// EpochResult summarises one training epoch.
type EpochResult struct {
	Epoch     int
	MeanLoss  float64
	Duration  time.Duration
	Stats     sampler.Stats // accumulated sampling workload
	NumIters  int
	BatchSeen int // total target nodes processed
}

// replica is one "GNN process"'s workspace: a model that trains on the
// engine's shared weights with its own gradients, activations and
// buffers, its training worker pool, and its data source (the global
// dataset's feature table, gathering into the replica's buffers).
type replica struct {
	model     *nn.GNN
	trainPool *tensor.Pool
	source    DataSource

	// per-iteration scratch, written by the replica's goroutine only
	lastLoss  float64
	lastCount int
	lastStats sampler.Stats
	lastErr   error
}

// Engine trains a GNN with n synchronized replicas. It is the substrate
// both the library baseline (n=1) and ARGO's Multi-Process Engine run on.
// It owns one parameter set and one optimizer for its whole life: each
// replica computes gradients over its share of a global batch against
// the shared weights, the gradients are all-reduced into replica 0's,
// and one Adam step updates the weights. Reconfigure changes (n, s, t)
// between epochs without touching either.
type Engine struct {
	cfg      Config
	replicas []*replica
	opt      *nn.Adam

	// BatchHook, when non-nil, runs after every global iteration (all
	// replicas synced). Experiments use it to trace convergence curves.
	BatchHook func(iteration int)

	iterCount int // global iterations since construction
}

// validate reports the first reason cfg cannot drive an engine.
func (cfg *Config) validate() error {
	if cfg.Dataset == nil || cfg.Sampler == nil {
		return fmt.Errorf("engine: dataset and sampler are required")
	}
	if cfg.BatchSize < 1 {
		return fmt.Errorf("engine: batch size %d", cfg.BatchSize)
	}
	if !(cfg.LR > 0) || math.IsInf(cfg.LR, 0) {
		return fmt.Errorf("engine: learning rate %v must be positive and finite", cfg.LR)
	}
	if cfg.NumProcs < 1 {
		return fmt.Errorf("engine: NumProcs %d", cfg.NumProcs)
	}
	if cfg.SampleWorkers < 1 || cfg.TrainWorkers < 1 {
		return fmt.Errorf("engine: worker counts must be ≥1, got s=%d t=%d", cfg.SampleWorkers, cfg.TrainWorkers)
	}
	if cfg.Model.Kind == "" {
		return fmt.Errorf("engine: model spec required")
	}
	if cfg.Sources != nil && len(cfg.Sources) != cfg.NumProcs {
		return fmt.Errorf("engine: %d sources for %d replicas", len(cfg.Sources), cfg.NumProcs)
	}
	if cfg.Sources == nil && (cfg.Dataset.Features == nil || cfg.Dataset.Labels == nil) {
		return fmt.Errorf("engine: dataset has no features/labels and no replica sources were provided")
	}
	if cfg.SamplingRegime == RegimeLocal {
		if cfg.Sources == nil {
			return fmt.Errorf("engine: the local sampling regime needs per-replica shard sources")
		}
		if len(cfg.LocalSamplers) != cfg.NumProcs || len(cfg.LocalTargets) != cfg.NumProcs {
			return fmt.Errorf("engine: local regime wants %d samplers and target sets, got %d and %d",
				cfg.NumProcs, len(cfg.LocalSamplers), len(cfg.LocalTargets))
		}
	}
	return nil
}

// New validates cfg and builds the engine: the model and its optimizer
// once, held by replica 0, and a Replica of it for every other process.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m, err := nn.NewModel(cfg.Model, nn.Degrees(cfg.Dataset.Graph))
	if err != nil {
		return nil, err
	}
	e := &Engine{replicas: []*replica{{model: m}}, opt: nn.NewAdam(cfg.LR)}
	e.apply(cfg)
	return e, nil
}

// Reconfigure moves the engine to cfg in place, between epochs: the
// weights, the optimizer's state and the iteration count carry on, and
// training continues as if the engine had been built with cfg. The
// replicas both configurations have keep their workspaces; each slot
// reads cfg's source for it, so an n change rebuilds no data source.
// cfg must name the engine's dataset and model; on any error the
// engine is left as it was.
func (e *Engine) Reconfigure(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if m := e.cfg.Model; cfg.Dataset != e.cfg.Dataset || cfg.Model.Kind != m.Kind || cfg.Model.Seed != m.Seed || !slices.Equal(cfg.Model.Dims, m.Dims) {
		return fmt.Errorf("engine: Reconfigure cannot change the dataset or the model (%s %v → %s %v)",
			m.Kind, m.Dims, cfg.Model.Kind, cfg.Model.Dims)
	}
	e.apply(cfg)
	return nil
}

// apply fits the replica slots to a validated cfg. Slot r < NumProcs
// keeps its workspace if it has one and gets a Replica of slot 0's model
// otherwise, and slots past NumProcs are dropped; a slot's training pool
// is rebuilt only when t changes. Each slot reads cfg's source for it;
// the engine's own sources (the dataset's, and those NewShardSourcesOpts
// returns) gather into the slot's buffer pool.
func (e *Engine) apply(cfg Config) {
	e.opt.LR = cfg.LR
	reps := slices.Clone(e.replicas[:min(len(e.replicas), cfg.NumProcs)])
	for len(reps) < cfg.NumProcs {
		reps = append(reps, &replica{model: reps[0].model.Replica()})
	}
	for r, rep := range reps {
		if rep.trainPool == nil || cfg.TrainWorkers != e.cfg.TrainWorkers {
			rep.trainPool = tensor.NewPool(cfg.TrainWorkers)
		}
		// The engine's sources draw gathered batches from the replica's
		// own buffer pool; step puts them back once consumed, closing
		// the recycle loop.
		rep.source = datasetSource{ds: cfg.Dataset}
		if cfg.Sources != nil {
			rep.source = cfg.Sources[r]
		}
		if s, ok := rep.source.(datasetSource); ok {
			s.bufs = rep.model.Buffers()
			rep.source = s
		}
	}
	e.replicas, e.cfg = reps, cfg
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Model returns replica r's model. Every replica's parameters share
// replica 0's weight matrices; its gradients and activations are its
// own.
func (e *Engine) Model(r int) *nn.GNN { return e.replicas[r].model }

// RunEpoch trains one epoch and returns its summary.
func (e *Engine) RunEpoch(epoch int) (EpochResult, error) {
	start := time.Now()
	n := e.cfg.NumProcs

	// Build per-replica job lists. Under the exact regime each iteration
	// is one global batch split n ways. Under the local regime (only the
	// repo benchmark's train_shard_local selects it) every replica
	// shuffles its own owned targets, in B/n-sized shares (preserving
	// the effective global batch ≈ B).
	perReplicaJobs := make([][]prefetchJob, n)
	var numIters int
	if e.cfg.SamplingRegime != RegimeLocal {
		globalBatches := epochBatches(e.cfg.Dataset.TrainIdx, e.cfg.BatchSize, seedFor(e.cfg.Seed, epoch, -1))
		numIters = len(globalBatches)
		for it, gb := range globalBatches {
			shares := splitShares(gb, n)
			for r := 0; r < n; r++ {
				perReplicaJobs[r] = append(perReplicaJobs[r], prefetchJob{
					index:   it,
					seed:    seedFor(e.cfg.Seed, epoch, it*n+r),
					targets: shares[r],
				})
			}
		}
	} else {
		size := max(e.cfg.BatchSize/n, 1)
		for r := 0; r < n; r++ {
			for it, b := range epochBatches(e.cfg.LocalTargets[r], size, seedFor(e.cfg.Seed, epoch, -2-r)) {
				perReplicaJobs[r] = append(perReplicaJobs[r], prefetchJob{
					index: it, seed: seedFor(e.cfg.Seed, epoch, it*n+r), targets: b,
				})
			}
			numIters = max(numIters, len(perReplicaJobs[r]))
		}
		// Target sets are unequal (shards own unequal train counts); pad
		// the short replicas with empty jobs (weight 0 in the all-reduce)
		// to keep the barrier square.
		for r := 0; r < n; r++ {
			for len(perReplicaJobs[r]) < numIters {
				perReplicaJobs[r] = append(perReplicaJobs[r], prefetchJob{index: len(perReplicaJobs[r])})
			}
		}
	}

	prefetchers := make([]*prefetcher, n)
	for r := 0; r < n; r++ {
		samp := e.cfg.Sampler
		if e.cfg.SamplingRegime == RegimeLocal {
			samp = e.cfg.LocalSamplers[r]
		}
		prefetchers[r] = newPrefetcher(samp, e.replicas[r].source, perReplicaJobs[r], e.cfg.SampleWorkers)
	}
	// Closing on every exit path matters: an epoch aborted by a replica
	// (or source) error must not strand workers parked on the
	// reorder buffer.
	defer func() {
		for r := 0; r < n; r++ {
			prefetchers[r].Close()
		}
	}()

	res := EpochResult{Epoch: epoch, NumIters: numIters}
	var lossSum float64
	var lossCount int
	sets := make([][]*nn.Param, n)
	for r, rep := range e.replicas {
		sets[r] = rep.model.Params()
	}
	weights := make([]float64, n)

	for it := 0; it < numIters; it++ {
		if err := eachReplica(n, func(r int) error {
			e.replicas[r].step(prefetchers[r].Next())
			return e.replicas[r].lastErr
		}); err != nil {
			return res, err
		}
		anyWork := false
		for r := 0; r < n; r++ {
			rep := e.replicas[r]
			weights[r] = float64(rep.lastCount)
			if rep.lastCount > 0 {
				anyWork = true
				lossSum += rep.lastLoss * float64(rep.lastCount)
				lossCount += rep.lastCount
				res.BatchSeen += rep.lastCount
				res.Stats.Accumulate(rep.lastStats)
			}
		}
		if anyWork {
			if err := ddp.AllReduceMeanWeighted(sets, weights); err != nil {
				return res, err
			}
			e.opt.Step(sets[0])
		}
		e.iterCount++
		if e.BatchHook != nil {
			e.BatchHook(e.iterCount)
		}
	}
	if lossCount > 0 {
		res.MeanLoss = lossSum / float64(lossCount)
	}
	res.Duration = time.Since(start)
	return res, nil
}

// eachReplica runs f(r) for r in [0, n) concurrently, waits for all, and
// returns the error of the lowest failing replica, named.
func eachReplica(n int, f func(r int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = f(r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("engine: replica %d: %w", r, err)
		}
	}
	return nil
}

// step computes one replica's gradient contribution for a mini-batch
// whose features and labels the prefetcher gathered. An empty share
// zeroes the gradients and reports weight 0.
func (rep *replica) step(bd batchData) {
	rep.model.ZeroGrad()
	rep.lastCount = 0
	rep.lastLoss = 0
	rep.lastStats = sampler.Stats{}
	rep.lastErr = nil
	mb := bd.mb
	if mb == nil || len(mb.Targets) == 0 {
		return
	}
	if bd.err != nil {
		rep.lastErr = bd.err
		return
	}
	x0 := bd.x0
	logits := rep.model.Forward(rep.trainPool, mb, x0)
	bufs := rep.model.Buffers()
	loss, dLogits := nn.SoftmaxCrossEntropyPooled(bufs, logits, bd.labels)
	rep.model.Backward(rep.trainPool, dLogits)
	// The gathered features and logit gradient are consumed; recycling
	// them through the replica's buffer pool keeps the steady-state
	// step free of per-batch matrix allocations (DataSource matrices
	// are caller-owned by contract).
	bufs.Put(dLogits)
	bufs.Put(x0)
	rep.lastLoss = loss
	rep.lastCount = len(mb.Targets)
	rep.lastStats = mb.Stats
}

// Evaluate returns replica 0's accuracy on the given node IDs, sampling
// evaluation batches with a fixed seed so results are deterministic.
// Features and labels flow through replica 0's data source, so sharded
// and single-store runs evaluate identically; a source error (a sharded
// source can fail on an unmapped node; the in-memory source cannot) is
// returned, never scored as accuracy 0. It runs the model's Infer, so
// the training step's activation cache is left as it was.
func (e *Engine) Evaluate(ids []graph.NodeID) (float64, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	const evalBatch = 256
	rep := e.replicas[0]
	correctWeighted := 0.0
	for lo := 0; lo < len(ids); lo += evalBatch {
		hi := lo + evalBatch
		if hi > len(ids) {
			hi = len(ids)
		}
		targets := ids[lo:hi]
		rng := newEvalRand(e.cfg.Seed, lo)
		mb := e.cfg.Sampler.Sample(rng, targets)
		x0, err := rep.source.GatherFeatures(mb.InputNodes())
		if err != nil {
			return 0, err
		}
		logits := rep.model.Infer(rep.trainPool, mb, x0)
		labels, err := rep.source.TargetLabels(targets)
		if err != nil {
			return 0, err
		}
		correctWeighted += nn.Accuracy(logits, labels) * float64(len(targets))
		rep.model.Buffers().Put(logits)
		rep.model.Buffers().Put(x0)
	}
	return correctWeighted / float64(len(ids)), nil
}
