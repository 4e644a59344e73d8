package engine

import (
	"fmt"
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
	// AdjustBatch mirrors the Multi-Process Engine's batch-size
	// adjustment. It defaults to true via New; setting it false after New
	// reproduces the semantics-breaking naive-DDP ablation, where every
	// process trains on a full-size batch from its own partition
	// (effective batch n·B).
	AdjustBatch bool
	// Sources, when non-nil, supplies each replica's feature/label
	// source (len must equal NumProcs) — the shard-aware training path,
	// where Dataset carries only topology, splits, spec, and class
	// count, and every lookup goes through the replica's source
	// (NewShardSourcesOpts). In either regime, each feature row is
	// gathered from a source once per engine and then served from a
	// first-touch cache (featureCache). Nil means every replica reads
	// the materialised Dataset directly.
	Sources []DataSource
	// SamplingRegime selects exact (default: global batches split n
	// ways, bit-identical to single-store) or partition-local sampling.
	// The local regime requires Sources plus the per-replica Samplers
	// and Targets from NewPartitionSetup; Sampler stays the exact
	// sampler and keeps serving Evaluate, so accuracy numbers compare
	// apples-to-apples across regimes.
	SamplingRegime SamplingRegime
	// LocalSamplers[r] is replica r's partition-bounded sampler (local
	// regime only; len must equal NumProcs).
	LocalSamplers []sampler.Sampler
	// LocalTargets[r] is replica r's owned train targets (local regime
	// only; len must equal NumProcs).
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
	// GradNodes and GradAbsSum summarise the local regime's reverse
	// gradient path: the number of owned rows that received routed
	// input-feature gradient contributions this epoch, and the L1 mass
	// of those contributions. Both are deterministic for a fixed
	// schedule (ids ascending, contributors reduced in ascending
	// replica order), so they double as a cross-transport parity
	// digest. Zero under the exact regime.
	GradNodes  int64
	GradAbsSum float64
}

// replica is one "GNN process": its own model, optimizer, worker pools,
// and data source (the global dataset, or its mapped shards).
type replica struct {
	model     *nn.GNN
	opt       *nn.Adam
	trainPool *tensor.Pool
	source    DataSource
	// router, when non-nil (local regime), receives the input-feature
	// gradient of every batch so halo rows' credit reaches their owning
	// replica. It doubles as source, carrying the feature cache.
	router *localSource

	// per-iteration scratch, written by the replica's goroutine only
	lastLoss  float64
	lastCount int
	lastStats sampler.Stats
	lastErr   error
}

// Engine trains a GNN with n synchronized replicas. It is the substrate
// both the library baseline (n=1) and ARGO's Multi-Process Engine run on.
type Engine struct {
	cfg      Config
	replicas []*replica

	// BatchHook, when non-nil, runs after every global iteration (all
	// replicas synced). Experiments use it to trace convergence curves.
	BatchHook func(iteration int)

	iterCount int // global iterations since construction
}

// New validates cfg, builds the replicas (bit-identical initial weights),
// and returns the engine. AdjustBatch is forced on; tests that need the
// ablation flip it explicitly afterwards.
func New(cfg Config) (*Engine, error) {
	if cfg.Dataset == nil || cfg.Sampler == nil {
		return nil, fmt.Errorf("engine: dataset and sampler are required")
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("engine: batch size %d", cfg.BatchSize)
	}
	if cfg.NumProcs < 1 {
		return nil, fmt.Errorf("engine: NumProcs %d", cfg.NumProcs)
	}
	if cfg.SampleWorkers < 1 || cfg.TrainWorkers < 1 {
		return nil, fmt.Errorf("engine: worker counts must be ≥1, got s=%d t=%d", cfg.SampleWorkers, cfg.TrainWorkers)
	}
	if cfg.Model.Kind == "" {
		return nil, fmt.Errorf("engine: model spec required")
	}
	if cfg.Sources != nil && len(cfg.Sources) != cfg.NumProcs {
		return nil, fmt.Errorf("engine: %d sources for %d replicas", len(cfg.Sources), cfg.NumProcs)
	}
	if cfg.Sources == nil && (cfg.Dataset.Features == nil || cfg.Dataset.Labels == nil) {
		return nil, fmt.Errorf("engine: dataset has no features/labels and no replica sources were provided")
	}
	if cfg.SamplingRegime == RegimeLocal {
		if cfg.Sources == nil {
			return nil, fmt.Errorf("engine: the local sampling regime needs per-replica shard sources")
		}
		if len(cfg.LocalSamplers) != cfg.NumProcs || len(cfg.LocalTargets) != cfg.NumProcs {
			return nil, fmt.Errorf("engine: local regime wants %d samplers and target sets, got %d and %d",
				cfg.NumProcs, len(cfg.LocalSamplers), len(cfg.LocalTargets))
		}
	}
	cfg.AdjustBatch = true
	e := &Engine{cfg: cfg}
	degrees := nn.Degrees(cfg.Dataset.Graph)
	for r := 0; r < cfg.NumProcs; r++ {
		m, err := nn.NewModel(cfg.Model, degrees)
		if err != nil {
			return nil, err
		}
		// Every source draws gathered batches from the replica's own
		// buffer pool; step puts them back once consumed, closing the
		// recycle loop.
		rep := &replica{
			model:     m,
			opt:       nn.NewAdam(cfg.LR),
			trainPool: tensor.NewPool(cfg.TrainWorkers),
			source:    datasetSource{ds: cfg.Dataset, bufs: m.Buffers()},
		}
		switch {
		case cfg.SamplingRegime == RegimeLocal:
			if _, ok := cfg.Sources[r].(GradientRouter); !ok {
				return nil, fmt.Errorf("engine: local regime replica %d source has no gradient reverse path", r)
			}
			rep.router = newLocalSource(cfg.Sources[r], cfg.Model.Dims[0], m.Buffers())
			rep.source = rep.router
		case cfg.Sources != nil:
			rep.source = newFeatureCache(cfg.Sources[r], cfg.Model.Dims[0], m.Buffers())
		}
		e.replicas = append(e.replicas, rep)
	}
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetAdjustBatch toggles the batch-size adjustment (see Config).
func (e *Engine) SetAdjustBatch(v bool) { e.cfg.AdjustBatch = v }

// Model returns replica r's model (replicas stay identical; tests verify).
func (e *Engine) Model(r int) *nn.GNN { return e.replicas[r].model }

// ParamSets exposes every replica's parameters, for consistency checks.
func (e *Engine) ParamSets() [][]*nn.Param {
	sets := make([][]*nn.Param, len(e.replicas))
	for r, rep := range e.replicas {
		sets[r] = rep.model.Params()
	}
	return sets
}

// RunEpoch trains one epoch and returns its summary.
func (e *Engine) RunEpoch(epoch int) (EpochResult, error) {
	start := time.Now()
	n := e.cfg.NumProcs
	ds := e.cfg.Dataset

	// Build per-replica job lists. With AdjustBatch each iteration is one
	// global batch split n ways. Otherwise every replica shuffles a target
	// set of its own: under the local regime its owned targets, in
	// B/n-sized shares (preserving the effective global batch ≈ B);
	// in the ablation a round-robin part of the train split, in
	// full-size batches.
	perReplicaJobs := make([][]prefetchJob, n)
	var numIters int
	if e.cfg.SamplingRegime != RegimeLocal && e.cfg.AdjustBatch {
		globalBatches := epochBatches(ds.TrainIdx, e.cfg.BatchSize, seedFor(e.cfg.Seed, epoch, -1))
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
		parts, size := e.cfg.LocalTargets, max(e.cfg.BatchSize/n, 1)
		if e.cfg.SamplingRegime != RegimeLocal {
			parts, size = make([][]graph.NodeID, n), e.cfg.BatchSize
			for i, v := range ds.TrainIdx {
				parts[i%n] = append(parts[i%n], v)
			}
		}
		for r := 0; r < n; r++ {
			for it, b := range epochBatches(parts[r], size, seedFor(e.cfg.Seed, epoch, -2-r)) {
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
	// (or remote-fetch) error must not strand workers parked on the
	// reorder buffer.
	defer func() {
		for r := 0; r < n; r++ {
			prefetchers[r].Close()
		}
	}()

	res := EpochResult{Epoch: epoch, NumIters: numIters}
	var lossSum float64
	var lossCount int
	sets := e.ParamSets()
	weights := make([]float64, n)

	for it := 0; it < numIters; it++ {
		if err := eachReplica(n, "", func(r int) error {
			e.replicas[r].step(prefetchers[r].Next())
			return e.replicas[r].lastErr
		}); err != nil {
			e.discardGradients()
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
				e.discardGradients()
				return res, err
			}
			for r := 0; r < n; r++ {
				e.replicas[r].opt.Step(sets[r])
			}
		}
		e.iterCount++
		if e.BatchHook != nil {
			e.BatchHook(e.iterCount)
		}
	}
	// Local regime: the epoch's accumulated input-feature gradients are
	// flushed to their owning replicas — every replica before any drain,
	// so each drain sees the complete epoch — then drained, replicas in
	// parallel both times. Per-source partial sums stay separate in the
	// exchange until a drain reduces them (ids ascending, contributors
	// ascending) and the digest is folded here in replica → row → column
	// order, so it is the same on every transport and schedule. Features
	// are frozen inputs, so the sums serve as an accounting/parity digest;
	// a trainable embedding layer would apply them to its owned rows.
	if e.cfg.SamplingRegime == RegimeLocal {
		err := eachReplica(n, " gradient flush", func(r int) error {
			return e.replicas[r].router.FlushGradients()
		})
		ids := make([][]graph.NodeID, n)
		sums := make([]*tensor.Matrix, n)
		if err == nil {
			err = eachReplica(n, " gradient drain", func(r int) (err error) {
				ids[r], sums[r], err = e.replicas[r].router.CollectGradients()
				return err
			})
		}
		if err != nil {
			e.discardGradients()
			return res, err
		}
		for r := 0; r < n; r++ {
			res.GradNodes += int64(len(ids[r]))
			if sums[r] == nil {
				continue
			}
			for _, x := range sums[r].Data {
				if x < 0 {
					x = -x
				}
				res.GradAbsSum += float64(x)
			}
		}
	}
	if lossCount > 0 {
		res.MeanLoss = lossSum / float64(lossCount)
	}
	res.Duration = time.Since(start)
	return res, nil
}

// eachReplica runs f(r) for r in [0, n) concurrently, waits for all, and
// returns the error of the lowest failing replica, named with what it
// was doing.
func eachReplica(n int, doing string, f func(r int) error) error {
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
			return fmt.Errorf("engine: replica %d%s: %w", r, doing, err)
		}
	}
	return nil
}

// discardGradients drops what a failed epoch left in the local regime's
// gradient path — sums not yet flushed, rows already routed to their
// owners — so it cannot leak into the next epoch's digest. No-op under
// the exact regime.
func (e *Engine) discardGradients() {
	for _, rep := range e.replicas {
		if rep.router != nil {
			rep.router.discardGradients()
		}
	}
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
	// Only the local regime reads the input-feature gradient: its
	// router receives all input ids, accumulates the rows across the
	// epoch and flushes them to their owners in one batched exchange at
	// epoch end, so boundary rows' credit reaches the replica that owns
	// them at a per-epoch (not per-batch) wire cost. The exact regime
	// skips computing it.
	if rep.router == nil {
		rep.model.Backward(rep.trainPool, dLogits)
	} else {
		dX := rep.model.BackwardInput(rep.trainPool, dLogits)
		err := rep.router.ScatterGradients(mb.InputNodes(), dX)
		bufs.Put(dX)
		if err != nil {
			rep.lastErr = err
			return
		}
	}
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

// ExportWeights returns a deep copy of replica 0's parameters, in the
// model's stable parameter order.
func (e *Engine) ExportWeights() []*tensor.Matrix {
	params := e.replicas[0].model.Params()
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		out[i] = p.W.Clone()
	}
	return out
}

// State is the training state a re-launch carries over: replica 0's
// weights and optimizer (replicas are bit-identical, so one copy stands
// for all).
type State struct {
	Weights []*tensor.Matrix
	Opt     *nn.Adam
}

// ExportState returns a deep copy of the engine's training state.
func (e *Engine) ExportState() *State {
	return &State{Weights: e.ExportWeights(), Opt: e.replicas[0].opt.Clone()}
}

// ImportState loads a state (as produced by ExportState) into every
// replica, keeping them bit-identical: training continues as if the
// engine had never been rebuilt.
func (e *Engine) ImportState(st *State) error {
	for _, rep := range e.replicas {
		params := rep.model.Params()
		if len(params) != len(st.Weights) {
			return fmt.Errorf("engine: ImportState got %d tensors, model has %d params", len(st.Weights), len(params))
		}
		for i, p := range params {
			if p.W.Rows != st.Weights[i].Rows || p.W.Cols != st.Weights[i].Cols {
				return fmt.Errorf("engine: ImportState param %d shape mismatch", i)
			}
			p.W.CopyFrom(st.Weights[i])
		}
		rep.opt = st.Opt.Clone()
	}
	return nil
}

// Evaluate returns replica 0's accuracy on the given node IDs, sampling
// evaluation batches with a fixed seed so results are deterministic.
// Features and labels flow through replica 0's data source, so sharded
// and single-store runs evaluate identically; a source error (a sharded
// source can fail on an unmapped node; the in-memory source cannot) is
// returned, never scored as accuracy 0.
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
		logits := rep.model.Forward(rep.trainPool, mb, x0)
		labels, err := rep.source.TargetLabels(targets)
		if err != nil {
			return 0, err
		}
		correctWeighted += nn.Accuracy(logits, labels) * float64(len(targets))
		rep.model.Buffers().Put(x0)
	}
	return correctWeighted / float64(len(ids)), nil
}
