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

	iterCount int       // global iterations since construction
	ahead     lookahead // the next epoch's head, sampled by the last one
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
// training continues as if the engine had been built with cfg (after a
// Close). The replicas both configurations have keep their workspaces;
// each slot reads cfg's source for it, so an n change rebuilds no data
// source. cfg must name the engine's dataset and model; on any error
// the engine is left as it was.
func (e *Engine) Reconfigure(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if m := e.cfg.Model; cfg.Dataset != e.cfg.Dataset || cfg.Model.Kind != m.Kind || cfg.Model.Seed != m.Seed || !slices.Equal(cfg.Model.Dims, m.Dims) {
		return fmt.Errorf("engine: Reconfigure cannot change the dataset or the model (%s %v → %s %v)",
			m.Kind, m.Dims, cfg.Model.Kind, cfg.Model.Dims)
	}
	e.Close()
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

// lookahead is the next epoch's first skip batches, sampled by the
// last epoch's prefetchers (heads) while its last steps ran, and the job
// lists they came from. Only RunEpoch(epoch) over an unchanged TrainIdx
// serves them first; any other RunEpoch and any Reconfigure drop them.
type lookahead struct {
	epoch, skip int
	train       []graph.NodeID  // a copy of TrainIdx when jobs were built
	jobs        [][]prefetchJob // each replica's jobs for epoch
	heads       []*prefetcher   // replica r's tail is jobs[r][:skip]; nil: no head
}

// Close stops the sampling the last epoch started for the next one and
// waits for its in-flight batches. The engine stays usable.
func (e *Engine) Close() {
	for _, p := range e.ahead.heads {
		p.Close()
	}
	e.ahead = lookahead{}
}

// epochJobs builds each replica's job list for one epoch, all of one
// length. Under the exact regime each iteration is one global batch
// split n ways. Under the local regime every replica shuffles its own
// owned targets in B/n-sized shares (the global batch stays ≈ B);
// shards own unequal train counts, so the short replicas are padded
// with empty jobs (weight 0 in the all-reduce) to keep the barrier square.
func (e *Engine) epochJobs(epoch int) [][]prefetchJob {
	c, n := &e.cfg, e.cfg.NumProcs
	jobs := make([][]prefetchJob, n)
	add := func(r, it int, targets []graph.NodeID) {
		jobs[r] = append(jobs[r], prefetchJob{seed: seedFor(c.Seed, epoch, it*n+r), targets: targets})
	}
	if c.SamplingRegime != RegimeLocal {
		for it, gb := range epochBatches(c.Dataset.TrainIdx, c.BatchSize, seedFor(c.Seed, epoch, -1)) {
			for r, share := range splitShares(gb, n) {
				add(r, it, share)
			}
		}
		return jobs
	}
	numIters := 0
	for r := range jobs {
		for it, b := range epochBatches(c.LocalTargets[r], max(c.BatchSize/n, 1), seedFor(c.Seed, epoch, -2-r)) {
			add(r, it, b)
		}
		numIters = max(numIters, len(jobs[r]))
	}
	for r := range jobs {
		jobs[r] = append(jobs[r], make([]prefetchJob, numIters-len(jobs[r]))...)
	}
	return jobs
}

// RunEpoch trains one epoch and returns its summary. Its prefetchers go
// on to sample the first s batches of epoch + 1 (see lookahead).
func (e *Engine) RunEpoch(epoch int) (EpochResult, error) {
	start := time.Now()
	c, n := &e.cfg, e.cfg.NumProcs
	head := e.ahead
	if head.heads == nil || head.epoch != epoch || !slices.Equal(head.train, c.Dataset.TrainIdx) {
		e.Close()
		head = lookahead{jobs: e.epochJobs(epoch)}
	}
	e.ahead = lookahead{}
	next := lookahead{epoch: epoch + 1, train: slices.Clone(c.Dataset.TrainIdx), jobs: e.epochJobs(epoch + 1)}
	next.skip = min(c.SampleWorkers, len(next.jobs[0]))
	prefetchers := make([]*prefetcher, n)
	for r, rep := range e.replicas {
		samp := c.Sampler
		if c.SamplingRegime == RegimeLocal {
			samp = c.LocalSamplers[r]
		}
		jobs := slices.Concat(head.jobs[r][head.skip:], next.jobs[r][:next.skip])
		prefetchers[r] = newPrefetcher(samp, rep.source, jobs, c.SampleWorkers)
	}
	// An aborted epoch closes every prefetcher, or their workers would
	// wait on the window for good; a finished one leaves its tail running.
	defer func() {
		if e.ahead.heads == nil {
			for _, p := range append(prefetchers, head.heads...) {
				p.Close()
			}
		}
	}()

	res := EpochResult{Epoch: epoch, NumIters: len(head.jobs[0])}
	var lossSum float64
	sets := make([][]*nn.Param, n)
	for r, rep := range e.replicas {
		sets[r] = rep.model.Params()
	}
	weights := make([]float64, n)

	for it := 0; it < res.NumIters; it++ {
		if err := eachReplica(n, func(r int) error {
			p := prefetchers[r]
			if it < head.skip {
				p = head.heads[r]
			}
			e.replicas[r].step(p.Next())
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
	if res.BatchSeen > 0 {
		res.MeanLoss = lossSum / float64(res.BatchSeen)
	}
	next.heads = prefetchers
	e.ahead = next
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
	rep.lastErr = bd.err
	mb := bd.mb
	if mb == nil || len(mb.Targets) == 0 || bd.err != nil {
		return
	}
	logits := rep.model.Forward(rep.trainPool, mb, bd.x0)
	bufs := rep.model.Buffers()
	loss, dLogits := nn.SoftmaxCrossEntropyPooled(bufs, logits, bd.labels)
	rep.model.Backward(rep.trainPool, dLogits)
	// The gathered features and logit gradient are consumed; recycling
	// them through the replica's buffer pool keeps the steady-state
	// step free of per-batch matrix allocations (DataSource matrices
	// are caller-owned by contract).
	bufs.Put(dLogits)
	bufs.Put(bd.x0)
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
		targets := ids[lo:min(lo+evalBatch, len(ids))]
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
