package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"argo/internal/datasets"
	"argo/internal/ddp"
	"argo/internal/engine"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

const (
	batchSize = 128
	learnRate = 0.01

	// graphSeed generates every workload's graph. The graph is a fixed
	// input: on a power-law graph a workload's cost follows the degrees
	// of a handful of hubs, which the generation seed moved by far more
	// than any bound (serve_zipf's median request took 6.9 to 16.3 ms
	// over ten generation seeds). -seed drives what is drawn on top of
	// the graph: model initialisation, batch shuffles, neighbor sampling
	// and request streams.
	graphSeed = 7
)

// trainSpec sizes one engine-level training workload.
type trainSpec struct {
	dataset  string // datasets profile the graph is generated from
	trainCut int    // the train split is cut to its first trainCut ids
	fanouts  []int  // neighbor fanouts; the model has one layer per entry
	procs    int    // replicas (n); s = t = 1
	shards   int    // 0 trains on the in-memory dataset
	fp16     bool   // store features as fp16 before sharding
	local    bool   // partition-local sampling regime
	replay   bool   // the traced pass replays the step layer by layer
}

func (sp trainSpec) sized(quick bool) trainSpec {
	if quick {
		sp.dataset, sp.trainCut = "tiny", 48
	}
	return sp
}

// ---- decorators: the benchmark's side of the engine's public seams ----

// layerTimers are the call sites a traced training run decorates.
type layerTimers struct {
	sample, gather, scatter timer
}

type tracedSampler struct {
	inner sampler.Sampler
	rec   *recorder
	t     *timer
}

func (s tracedSampler) Sample(rng *rand.Rand, targets []graph.NodeID) *sampler.MiniBatch {
	start := time.Now()
	mb := s.inner.Sample(rng, targets)
	s.rec.observe(s.t, "sampler.Sample", 0, start)
	return mb
}
func (s tracedSampler) Name() string   { return s.inner.Name() }
func (s tracedSampler) NumLayers() int { return s.inner.NumLayers() }

// tracedSource times one replica's DataSource, including the gradient
// reverse path the local regime drives through it.
type tracedSource struct {
	inner engine.DataSource
	rec   *recorder
	lt    *layerTimers
	track int
}

func (s tracedSource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	start := time.Now()
	m, err := s.inner.GatherFeatures(ids)
	s.rec.observe(&s.lt.gather, "ddp.GatherFeatures", s.track, start)
	return m, err
}

func (s tracedSource) TargetLabels(ids []graph.NodeID) ([]int32, error) {
	start := time.Now()
	l, err := s.inner.TargetLabels(ids)
	s.rec.observe(&s.lt.gather, "ddp.TargetLabels", s.track, start)
	return l, err
}

func (s tracedSource) ScatterGradients(ids []graph.NodeID, grads *tensor.Matrix) error {
	rt, ok := s.inner.(engine.GradientRouter)
	if !ok {
		return fmt.Errorf("benchmark: source has no gradient reverse path")
	}
	start := time.Now()
	err := rt.ScatterGradients(ids, grads)
	s.rec.observe(&s.lt.scatter, "ddp.ScatterGradients", s.track, start)
	return err
}

func (s tracedSource) CollectGradients() ([]graph.NodeID, *tensor.Matrix, error) {
	c, ok := s.inner.(engine.GradientCollector)
	if !ok {
		return nil, nil, nil
	}
	start := time.Now()
	ids, m, err := c.CollectGradients()
	s.rec.observe(&s.lt.scatter, "ddp.CollectGradients", s.track, start)
	return ids, m, err
}

// memSource reads the in-memory dataset the way the engine's default
// source does; it exists so the single-store workload has a seam to
// decorate. bufs is the replica's pool, known only after engine.New.
type memSource struct {
	ds   *graph.Dataset
	bufs *tensor.BufPool
}

func (s *memSource) GatherFeatures(ids []graph.NodeID) (*tensor.Matrix, error) {
	return nn.GatherPooled(s.bufs, s.ds.Features, ids), nil
}

func (s *memSource) TargetLabels(ids []graph.NodeID) ([]int32, error) {
	out := make([]int32, len(ids))
	for i, v := range ids {
		out[i] = s.ds.Labels[v]
	}
	return out, nil
}

// ---- one engine ----

// trainRun is one constructed engine with its exchange and the
// bookkeeping the correctness checks need.
type trainRun struct {
	eng    *engine.Engine
	ex     *ddp.HaloExchange // nil on a single store
	epoch  int
	losses []float64
}

func (r *trainRun) close() {
	if r != nil && r.ex != nil {
		r.ex.Close()
	}
}

// trainInstance is a set-up training workload.
type trainInstance struct {
	e    *env
	spec trainSpec
	full *graph.Dataset // generated dataset, features in memory
	topo *graph.Dataset // what the engine trains on: full, or the shard set's skeleton
	ss   *graph.ShardSet
	live *trainRun

	lt     *layerTimers
	shadow *trainRun // decorated twin of live (traced runs)
}

// build generates the workload's dataset: the fixed graph, its train
// split cut, its features rounded to fp16 when the spec stores them so.
func (sp trainSpec) build() (*graph.Dataset, error) {
	ds, err := datasets.Resolve(sp.dataset, graphSeed)
	if err != nil {
		return nil, err
	}
	if len(ds.TrainIdx) > sp.trainCut {
		ds.TrainIdx = ds.TrainIdx[:sp.trainCut]
	}
	if sp.fp16 {
		err = ds.ConvertFeatures(graph.DtypeF16)
	}
	return ds, err
}

func (sp trainSpec) model(ds *graph.Dataset, seed int64) nn.ModelSpec {
	dims := []int{ds.Spec.ScaledF0}
	for range sp.fanouts[1:] {
		dims = append(dims, ds.Spec.ScaledHidden)
	}
	return nn.ModelSpec{Kind: nn.KindSAGE, Dims: append(dims, ds.NumClasses), Seed: seed}
}

// newRun builds one engine over the instance's inputs. lt non-nil
// injects the decorators; transport selects the exchange's transport
// on a sharded run.
func (ti *trainInstance) newRun(transport string, lt *layerTimers) (*trainRun, error) {
	sp, seed := ti.spec, ti.e.seed
	run := &trainRun{}
	cfg := engine.Config{
		Dataset:       ti.topo,
		Sampler:       sampler.NewNeighbor(ti.topo.Graph, sp.fanouts),
		Model:         sp.model(ti.topo, seed),
		BatchSize:     batchSize,
		LR:            learnRate,
		NumProcs:      sp.procs,
		SampleWorkers: 1,
		TrainWorkers:  1,
		Seed:          seed,
	}
	var mem *memSource
	if ti.ss != nil {
		sources, ex, err := engine.NewShardSourcesOpts(ti.ss, sp.procs, engine.ShardSourceOptions{Transport: transport})
		if err != nil {
			return nil, err
		}
		run.ex = ex
		cfg.Sources = sources
		if sp.local {
			setup, err := engine.NewPartitionSetup(ti.ss, ti.topo, sp.procs, sp.fanouts)
			if err != nil {
				run.close()
				return nil, err
			}
			cfg.SamplingRegime = engine.RegimeLocal
			cfg.LocalSamplers, cfg.LocalTargets = setup.Samplers, setup.Targets
		}
	} else if lt != nil {
		mem = &memSource{ds: ti.full}
		cfg.Sources = []engine.DataSource{mem}
	}
	if lt != nil {
		cfg.Sampler = tracedSampler{cfg.Sampler, ti.e.rec, &lt.sample}
		for r, s := range cfg.LocalSamplers {
			cfg.LocalSamplers[r] = tracedSampler{s, ti.e.rec, &lt.sample}
		}
		for r, s := range cfg.Sources {
			cfg.Sources[r] = tracedSource{inner: s, rec: ti.e.rec, lt: lt, track: r}
		}
	}
	eng, err := engine.New(cfg)
	if err != nil {
		run.close()
		return nil, err
	}
	if mem != nil {
		mem.bufs = eng.Model(0).Buffers()
	}
	run.eng = eng
	return run, nil
}

// runEpoch trains one epoch on run, checks it, and returns its result
// and the wall time around Engine.RunEpoch.
func (ti *trainInstance) runEpoch(run *trainRun) (engine.EpochResult, time.Duration, error) {
	ti.e.attempted.Add(1)
	t0 := time.Now()
	res, err := run.eng.RunEpoch(run.epoch)
	wall := time.Since(t0)
	if err != nil {
		ti.e.violation("epoch %d: %v", run.epoch, err)
		return res, wall, err
	}
	if math.IsNaN(res.MeanLoss) || math.IsInf(res.MeanLoss, 0) {
		ti.e.violation("epoch %d: loss %v", run.epoch, res.MeanLoss)
	}
	if want := len(ti.topo.TrainIdx); res.BatchSeen != want {
		ti.e.violation("epoch %d: trained %d targets, want %d", run.epoch, res.BatchSeen, want)
	}
	run.epoch++
	run.losses = append(run.losses, res.MeanLoss)
	return res, wall, nil
}

const trainWarmEpochs = 1

func setupTrain(e *env, sp trainSpec) (instance, error) {
	sp = sp.sized(e.quick)
	ti := &trainInstance{e: e, spec: sp}
	err := e.stage("datasets.build_s", func() (err error) {
		ti.full, err = sp.build()
		ti.topo = ti.full
		return err
	})
	if err != nil {
		return nil, err
	}
	if sp.shards > 0 {
		var paths []string
		err := e.stage("graph.shard_write_s", func() error {
			_, p, err := graph.WriteShardSet(ti.full, e.tmp, "bench", graph.ShardOptions{K: sp.shards, Seed: graphSeed})
			paths = p
			return err
		})
		if err != nil {
			return nil, err
		}
		err = e.stage("graph.shard_open_s", func() error {
			ss, err := graph.OpenShardSet(filepath.Join(e.tmp, filepath.Base(paths[0])))
			if err != nil {
				return err
			}
			ti.ss = ss
			ti.topo, err = ss.Skeleton()
			return err
		})
		if err != nil {
			ti.close()
			return nil, err
		}
	}
	transport := ""
	if sp.shards > 0 {
		transport = "tcp"
	}
	if ti.live, err = ti.newRun(transport, nil); err != nil {
		ti.close()
		return nil, err
	}
	runs := []*trainRun{ti.live}
	if e.traced {
		ti.lt = &layerTimers{}
		if ti.shadow, err = ti.newRun(transport, ti.lt); err != nil {
			ti.close()
			return nil, err
		}
		runs = append(runs, ti.shadow)
	}
	// Warm-up: pool growth, first-touch halo cache, connection dial.
	for _, run := range runs {
		for i := 0; i < trainWarmEpochs; i++ {
			if _, _, err := ti.runEpoch(run); err != nil {
				ti.close()
				return nil, err
			}
		}
	}
	return ti, nil
}

// slice is one epoch: epochs repeat the same work, so the best slice
// is simply the fastest epoch.
func (ti *trainInstance) slice() (sliceSample, error) {
	var s sliceSample
	res, wall, err := ti.runEpoch(ti.live)
	s.add(wall, res.BatchSeen)
	return s, err
}

// verify runs the checks that need the whole run: the loss fell, and
// sharded exact training matches single-store training.
func (ti *trainInstance) verify() error {
	l := ti.live.losses
	if len(l) < 2 || !(l[len(l)-1] < l[0]) {
		ti.e.violation("loss did not fall: first %v, last %v over %d epochs", l[0], l[len(l)-1], len(l))
	}
	ti.e.set("engine.final_loss", l[len(l)-1])
	if ti.ss == nil || ti.spec.local {
		return nil
	}
	// The exact regime promises the single-store batch stream: its
	// warm-up losses must equal an in-memory run of the same replicas.
	ref, err := engine.New(engine.Config{
		Dataset:       ti.full,
		Sampler:       sampler.NewNeighbor(ti.full.Graph, ti.spec.fanouts),
		Model:         ti.spec.model(ti.full, ti.e.seed),
		BatchSize:     batchSize,
		LR:            learnRate,
		NumProcs:      ti.spec.procs,
		SampleWorkers: 1,
		TrainWorkers:  1,
		Seed:          ti.e.seed,
	})
	if err != nil {
		return err
	}
	for ep := 0; ep < trainWarmEpochs; ep++ {
		ti.e.attempted.Add(1)
		res, err := ref.RunEpoch(ep)
		if err != nil {
			return err
		}
		if d := math.Abs(res.MeanLoss - l[ep]); d > 1e-6 {
			ti.e.violation("epoch %d: sharded loss %v differs from single-store %v by %g", ep, l[ep], res.MeanLoss, d)
		}
	}
	return nil
}

func (ti *trainInstance) close() {
	ti.live.close()
	ti.shadow.close()
	if ti.ss != nil {
		ti.ss.Close()
	}
}

// ---- traced pass ----

// trace spends budget on the per-layer numbers: live and decorated
// epochs in alternation, the sequential layer replay, then the probes
// of single public functions.
func (ti *trainInstance) trace(budget time.Duration) error {
	e := ti.e
	// series holds one value per traced epoch for every per-epoch metric.
	series := map[string][]float64{}
	add := func(metric string, v float64) { series[metric] = append(series[metric], v) }
	var liveS, shadowS []float64
	var last engine.EpochResult
	for _, t := range []*timer{&ti.lt.sample, &ti.lt.gather, &ti.lt.scatter} {
		t.take()
	}
	if ti.shadow.ex != nil {
		ti.shadow.ex.Snapshot()
	}
	share := 80
	if ti.spec.replay {
		share = 45
	}
	deadline := time.Now().Add(budget * time.Duration(share) / 100)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, wall, err := ti.runEpoch(ti.live)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		liveS = append(liveS, wall.Seconds())
		add("engine.alloc_mb_per_epoch", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		add("engine.allocs_per_iter", ratio(float64(after.Mallocs-before.Mallocs), float64(res.NumIters)))

		err = e.rec.under("engine.RunEpoch", func() error {
			last, wall, err = ti.runEpoch(ti.shadow)
			return err
		})
		if err != nil {
			return err
		}
		shadowS = append(shadowS, wall.Seconds())
		secs, _ := ti.lt.sample.take()
		add("sampler.busy_s", secs)
		secs, _ = ti.lt.gather.take()
		add("ddp.gather_busy_s", secs)
		secs, _ = ti.lt.scatter.take()
		add("ddp.scatter_busy_s", secs)
		if ti.shadow.ex != nil {
			d := ti.shadow.ex.Snapshot()
			add("ddp.wire_mb_per_epoch", float64(d.WireBytes)/1e6)
			add("ddp.messages_per_epoch", float64(d.Messages))
			add("ddp.remote_rows_per_epoch", float64(d.RemoteRows))
			add("ddp.grad_rows_per_epoch", float64(d.GradRows))
		}
	}
	// First-touch caches (the local regime's halo rows) keep settling
	// for several epochs; the per-epoch numbers are read from the second
	// half of the pass.
	for metric, xs := range series {
		e.set(metric, median(xs[len(xs)/2:]))
	}
	liveS, shadowS = liveS[len(liveS)/2:], shadowS[len(shadowS)/2:]
	epochP50 := median(liveS)
	e.set("engine.epoch_s_p50", epochP50)
	e.set("engine.epoch_s_p90", percentile(liveS, 0.9))
	e.set("engine.iters_per_epoch", float64(last.NumIters))
	e.set("sampler.sampled_edges_per_epoch", float64(last.Stats.SampledEdges))
	inputPerIter := ratio(float64(last.Stats.InputNodes), float64(last.NumIters*ti.spec.procs))
	e.set("sampler.input_nodes_per_iter", inputPerIter)
	e.set("harness.trace_overhead_ratio", ratio(median(shadowS), epochP50))

	if ti.spec.replay {
		if err := ti.replay(budget*35/100, epochP50); err != nil {
			return err
		}
	}
	probeMatMul(e, int(inputPerIter), ti.topo.Spec.ScaledF0, ti.topo.Spec.ScaledHidden)
	if ti.ss != nil {
		dt, err := graph.ParseFeatDtype(ti.ss.Manifest.FeatDtype)
		if err != nil {
			return err
		}
		rowsPerMsg := int(ratio(e.values["ddp.remote_rows_per_epoch"], e.values["ddp.messages_per_epoch"]))
		if err := probeTransports(e, rowsPerMsg, ti.topo.Spec.ScaledF0, dt); err != nil {
			return err
		}
		return ti.probeInproc(epochP50)
	}
	return nil
}

// replay drives, one call at a time on one goroutine, the public calls
// a training step makes, on batches drawn the way the engine draws
// them, and reports each layer's seconds per epoch.
func (ti *trainInstance) replay(budget time.Duration, epochS float64) error {
	e, sp, n := ti.e, ti.spec, ti.spec.procs
	var sources []engine.DataSource
	if ti.ss != nil {
		srcs, ex, err := engine.NewShardSourcesOpts(ti.ss, n, engine.ShardSourceOptions{Transport: "tcp"})
		if err != nil {
			return err
		}
		defer ex.Close()
		sources = srcs
	}
	models := make([]*nn.GNN, n)
	opts := make([]*nn.Adam, n)
	sets := make([][]*nn.Param, n)
	pool := tensor.NewPool(1)
	for r := range models {
		m, err := nn.NewModel(sp.model(ti.topo, e.seed), nil)
		if err != nil {
			return err
		}
		models[r], opts[r], sets[r] = m, nn.NewAdam(learnRate), m.Params()
		if ti.ss == nil {
			sources = append(sources, &memSource{ds: ti.full, bufs: m.Buffers()})
		}
	}
	samp := sampler.NewNeighbor(ti.topo.Graph, sp.fanouts)
	var tSample, tGather, tForward, tLoss, tBackward, tReduce, tOptim timer
	type stage struct {
		metric string
		t      *timer
		perEp  []float64 // seconds in each replayed epoch
	}
	stages := []*stage{
		{metric: "sampler.sample_s", t: &tSample},
		{metric: "ddp.gather_s", t: &tGather},
		{metric: "nn.forward_s", t: &tForward},
		{metric: "nn.loss_s", t: &tLoss},
		{metric: "nn.backward_s", t: &tBackward},
		{metric: "ddp.allreduce_s", t: &tReduce},
		{metric: "nn.optimizer_s", t: &tOptim},
	}
	var edges float64
	weights := make([]float64, n)
	deadline := time.Now().Add(budget)
	for ep := 0; ep < 2 || time.Now().Before(deadline); ep++ {
		rng := rand.New(rand.NewSource(e.seed + int64(ep)*7919))
		ids := append([]graph.NodeID(nil), ti.topo.TrainIdx...)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		edges = 0
		err := e.rec.under("replay.epoch", func() error {
			for lo := 0; lo < len(ids); lo += batchSize {
				global := ids[lo:min(lo+batchSize, len(ids))]
				for r := 0; r < n; r++ {
					share := global[len(global)*r/n : len(global)*(r+1)/n]
					weights[r] = float64(len(share))
					models[r].ZeroGrad()
					if len(share) == 0 {
						continue
					}
					start := time.Now()
					mb := samp.Sample(rng, share)
					e.rec.observe(&tSample, "sampler.Sample", r, start)
					edges += float64(mb.Stats.SampledEdges)

					start = time.Now()
					x0, err := sources[r].GatherFeatures(mb.InputNodes())
					if err != nil {
						return err
					}
					labels, err := sources[r].TargetLabels(mb.Targets)
					if err != nil {
						return err
					}
					e.rec.observe(&tGather, "ddp.GatherFeatures", r, start)

					start = time.Now()
					logits := models[r].Forward(pool, mb, x0)
					e.rec.observe(&tForward, "nn.Forward", r, start)

					start = time.Now()
					bufs := models[r].Buffers()
					_, dLogits := nn.SoftmaxCrossEntropyPooled(bufs, logits, labels)
					e.rec.observe(&tLoss, "nn.SoftmaxCrossEntropy", r, start)

					start = time.Now()
					dX := models[r].Backward(pool, dLogits)
					e.rec.observe(&tBackward, "nn.Backward", r, start)
					bufs.Put(dX)
					bufs.Put(dLogits)
					bufs.Put(x0)
				}
				start := time.Now()
				if err := ddp.AllReduceMeanWeighted(sets, weights); err != nil {
					return err
				}
				e.rec.observe(&tReduce, "ddp.AllReduce", 0, start)
				start = time.Now()
				for r := 0; r < n; r++ {
					opts[r].Step(sets[r])
				}
				e.rec.observe(&tOptim, "nn.Adam.Step", 0, start)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, st := range stages {
			secs, _ := st.t.take()
			st.perEp = append(st.perEp, secs)
		}
	}
	var total float64
	for _, st := range stages {
		m := median(st.perEp)
		total += m
		e.set(st.metric, m)
	}
	e.set("engine.overlap_factor", ratio(total, epochS))
	e.set("sampler.edges_per_s", ratio(edges, median(stages[0].perEp)))
	return nil
}

// probeInproc trains the same shard set over the in-process transport
// and reports how much slower the tcp epoch is.
func (ti *trainInstance) probeInproc(tcpEpochS float64) error {
	run, err := ti.newRun("inproc", nil)
	if err != nil {
		return err
	}
	defer run.close()
	var secs []float64
	for i := 0; i < trainWarmEpochs+2; i++ {
		_, wall, err := ti.runEpoch(run)
		if err != nil {
			return err
		}
		if i >= trainWarmEpochs {
			secs = append(secs, wall.Seconds())
		}
	}
	ti.e.set("ddp.tcp_over_inproc_epoch", ratio(tcpEpochS, median(secs)))
	return nil
}

// probeMatMul times the public dense kernel on the workload's first
// layer shape: (input nodes per iteration × F0) · (F0 × hidden).
func probeMatMul(e *env, rows, f0, hidden int) {
	if rows < 1 {
		return
	}
	a, b, dst := tensor.New(rows, f0), tensor.New(f0, hidden), tensor.New(rows, hidden)
	a.Fill(0.5)
	b.Fill(0.25)
	pool := tensor.NewPool(1)
	var secs []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		tensor.MatMul(pool, dst, a, b)
		secs = append(secs, time.Since(start).Seconds())
		e.rec.observe(nil, "tensor.MatMul", 0, start)
	}
	e.set("tensor.matmul_gflops", ratio(2*float64(rows)*float64(f0)*float64(hidden)/1e9, minOf(secs)))
}

// probeTransports times one feature-request round trip of rows ids on
// each transport, between two replicas.
func probeTransports(e *env, rows, dim int, dt graph.FeatDtype) error {
	if rows < 1 {
		rows = 1
	}
	feat := make([]float32, rows*dim)
	ids := make([]graph.NodeID, rows)
	handler := func(req *ddp.Request) (*ddp.Response, error) {
		return &ddp.Response{Dtype: req.Dtype, Feat: feat[:len(req.IDs)*dim]}, nil
	}
	for _, name := range []string{"tcp", "inproc"} {
		tr, err := ddp.NewTransport(name)
		if err != nil {
			return err
		}
		if err := tr.Bind([]ddp.Handler{handler, handler}); err != nil {
			tr.Close()
			return err
		}
		var us []float64
		for i := 0; i < 220; i++ {
			start := time.Now()
			_, err := tr.Call(1, &ddp.Request{From: 0, Kind: ddp.MsgFeatures, Dtype: dt, IDs: ids})
			if err != nil {
				tr.Close()
				return err
			}
			e.rec.observe(nil, "ddp."+name+".Call", 0, start)
			if i >= 20 {
				us = append(us, time.Since(start).Seconds()*1e6)
			}
		}
		if err := tr.Close(); err != nil {
			return err
		}
		e.set("ddp."+name+"_call_us", median(us))
	}
	return nil
}
