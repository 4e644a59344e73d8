package main

import (
	"context"
	"math"
	"time"

	"argo"
	"argo/internal/graph"
	"argo/internal/sampler"
)

// The auto-tuned run: the paper's headline path, sized so that one
// whole Runtime.Run is one operation.
const (
	tuneEpochs   = 8
	tuneSearches = 4
	tuneCores    = 4
	// tunePaths is how many strategy seeds the traced pass cycles
	// through. Which configurations a search path tries decides most
	// of a run's length, so the measured slices all take path 0 and
	// compare like with like.
	tunePaths = 3
)

var tuneSpec = trainSpec{dataset: "arxiv-sim@x2", trainCut: 512, fanouts: []int{15, 10, 5}}

type autotuneInstance struct {
	e    *env
	spec trainSpec
	ds   *graph.Dataset
	samp sampler.Sampler
	lt   *layerTimers

	firstLoss, lastLoss float64
}

// tunedRun is what one Runtime.Run reports about itself.
type tunedRun struct {
	wallS      float64
	epochSumS  float64 // Σ of the epoch seconds the trainer reported
	searchS    float64 // Σ over the search phase
	tunedS     float64 // best reuse-phase epoch
	overheadS  float64 // time inside the strategy
	relaunches int     // configuration changes, the first launch included
}

func setupAutotune(e *env) (instance, error) {
	ai := &autotuneInstance{e: e, spec: tuneSpec.sized(e.quick)}
	err := e.stage("datasets.build_s", func() (err error) {
		ai.ds, err = ai.spec.build()
		return err
	})
	if err != nil {
		return nil, err
	}
	ai.samp = sampler.NewNeighbor(ai.ds.Graph, ai.spec.fanouts)
	if e.traced {
		ai.lt = &layerTimers{}
	}
	// Warm-up: one epoch at the library baseline grows the pools.
	tr, err := ai.trainer(ai.samp)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	_, err = tr.Step(context.Background(), argo.Config{Procs: 1, SampleCores: 1, TrainCores: 1}, 1)
	return ai, err
}

func (ai *autotuneInstance) trainer(samp sampler.Sampler) (*argo.GNNTrainer, error) {
	return argo.NewGNNTrainer(argo.GNNTrainerOptions{
		Dataset:   ai.ds,
		Sampler:   samp,
		Model:     ai.spec.model(ai.ds, ai.e.seed),
		BatchSize: batchSize,
		LR:        learnRate,
		Seed:      ai.e.seed,
	})
}

// run is one fresh trainer and runtime taken through a whole tuned
// training run.
func (ai *autotuneInstance) run(samp sampler.Sampler, path int64) (tunedRun, error) {
	e := ai.e
	e.attempted.Add(1)
	var out tunedRun
	tr, err := ai.trainer(samp)
	if err != nil {
		return out, err
	}
	defer tr.Close()
	rt, err := argo.NewRuntime(tuneEpochs, tuneSearches,
		argo.WithTotalCores(tuneCores), argo.WithStrategy(argo.StrategyBayesOpt), argo.WithSeed(path))
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	rep, err := rt.Run(context.Background(), tr.Step)
	out.wallS = time.Since(t0).Seconds()
	if err != nil {
		e.violation("tuned run: %v", err)
		return out, err
	}
	losses := tr.LossHistory()
	if len(rep.History) != tuneEpochs || len(losses) != tuneEpochs {
		e.violation("tuned run trained %d epochs (%d losses), want %d", len(rep.History), len(losses), tuneEpochs)
		return out, nil
	}
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			e.violation("tuned run epoch %d: loss %v", i, l)
		}
	}
	ai.firstLoss, ai.lastLoss = losses[0], losses[len(losses)-1]
	if !(ai.lastLoss < ai.firstLoss) {
		e.violation("tuned run: loss did not fall: first %v, last %v", ai.firstLoss, ai.lastLoss)
	}
	out.overheadS = rep.TunerOverhead.Seconds()
	out.tunedS = math.Inf(1)
	var prev argo.Config
	for _, h := range rep.History {
		out.epochSumS += h.Seconds
		if h.Phase == argo.PhaseSearch {
			out.searchS += h.Seconds
		} else if h.Seconds < out.tunedS {
			out.tunedS = h.Seconds
		}
		if h.Config != prev {
			out.relaunches++
			prev = h.Config
		}
	}
	return out, nil
}

func (ai *autotuneInstance) slice() (sliceSample, error) {
	var s sliceSample
	r, err := ai.run(ai.samp, 0)
	s.add(time.Duration(r.wallS*float64(time.Second)), tuneEpochs*len(ai.ds.TrainIdx))
	return s, err
}

func (ai *autotuneInstance) verify() error {
	ai.e.set("engine.final_loss", ai.lastLoss)
	return nil
}

func (ai *autotuneInstance) close() {}

// trace alternates plain and sampler-decorated tuned runs, then
// measures the library baseline the tuned epoch is compared with.
func (ai *autotuneInstance) trace(budget time.Duration) error {
	e := ai.e
	var plain, traced []tunedRun
	var sampleBusy []float64
	deadline := time.Now().Add(budget * 80 / 100)
	for i := 0; i < tunePaths || time.Now().Before(deadline); i++ {
		path := int64(i % tunePaths)
		r, err := ai.run(ai.samp, path)
		if err != nil {
			return err
		}
		plain = append(plain, r)
		ai.lt.sample.take()
		err = e.rec.under("argo.Runtime.Run", func() error {
			r, err = ai.run(tracedSampler{ai.samp, e.rec, &ai.lt.sample}, path)
			return err
		})
		if err != nil {
			return err
		}
		traced = append(traced, r)
		secs, _ := ai.lt.sample.take()
		sampleBusy = append(sampleBusy, secs/tuneEpochs)
	}
	col := func(runs []tunedRun, f func(tunedRun) float64) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			out[i] = f(r)
		}
		return out
	}
	wall := col(plain, func(r tunedRun) float64 { return r.wallS })
	tuned := col(plain, func(r tunedRun) float64 { return r.tunedS })
	runS, tunedS := median(wall), median(tuned)
	e.set("argo.tuner_overhead_s", median(col(plain, func(r tunedRun) float64 { return r.overheadS })))
	e.set("argo.search_share", median(col(plain, func(r tunedRun) float64 { return ratio(r.searchS, r.wallS) })))
	e.set("argo.tuned_epoch_s", tunedS)
	best, mispicks := minOf(tuned), 0
	for _, t := range tuned {
		if t > 1.15*best {
			mispicks++
		}
	}
	e.set("argo.mispick_share", float64(mispicks)/float64(len(tuned)))
	e.set("core.relaunch_s", median(col(plain, func(r tunedRun) float64 { return r.wallS - r.epochSumS - r.overheadS })))
	e.set("core.relaunches", median(col(plain, func(r tunedRun) float64 { return float64(r.relaunches) })))
	e.set("engine.epoch_s_p50", median(col(plain, func(r tunedRun) float64 { return r.epochSumS / tuneEpochs })))
	e.set("engine.iters_per_epoch", math.Ceil(float64(len(ai.ds.TrainIdx))/batchSize))
	e.set("sampler.busy_s", median(sampleBusy))
	e.set("harness.trace_overhead_ratio", ratio(median(col(traced, func(r tunedRun) float64 { return r.wallS })), runS))

	// The library baseline: the same trainer pinned at n=1, s=1, t=1.
	tr, err := ai.trainer(ai.samp)
	if err != nil {
		return err
	}
	defer tr.Close()
	var base []float64
	for i := 0; i < 4; i++ {
		e.attempted.Add(1)
		secs, err := tr.Step(context.Background(), argo.Config{Procs: 1, SampleCores: 1, TrainCores: 1}, 1)
		if err != nil {
			return err
		}
		if i > 0 {
			base = append(base, secs)
		}
	}
	e.set("argo.tuned_speedup", ratio(median(base), tunedS))
	return nil
}
