package engine

import (
	"math/rand"
	"sync"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// prefetcher runs a pool of sampling workers ahead of the trainer,
// reproducing the sampling/propagation overlap that DGL/PyG dataloaders
// implement with `num_workers` and that ARGO's `s` parameter sizes.
//
// The workers also gather each batch's feature rows and labels from the
// replica's DataSource right after sampling it — so batch i+1's rows
// are copied while batch i computes. Features and labels are pure
// functions of the batch's node ids, so gathering them early changes no
// value the training step sees.
//
// Determinism: each job's sampling RNG is seeded from the job's own seed,
// never from worker identity, and results are consumed strictly in job
// order through a reorder buffer — so the produced batch sequence is
// byte-identical no matter how many workers run or how they interleave.
type prefetcher struct {
	jobs    chan prefetchJob
	results []chan batchData
	window  chan struct{}
	quit    chan struct{}
	stop    sync.Once
	wg      sync.WaitGroup
	next    int
}

type prefetchJob struct {
	index   int
	seed    int64
	targets []graph.NodeID
}

// batchData is one prefetched unit of work: the sampled mini-batch plus
// its gathered features and labels (or the error the gather produced,
// surfaced at consumption time).
type batchData struct {
	mb     *sampler.MiniBatch
	x0     *tensor.Matrix
	labels []int32
	err    error
}

// newPrefetcher starts `workers` sampling goroutines over the given jobs.
// The prefetch window bounds how far sampling runs ahead of consumption.
// Workers gather each non-empty batch's features and labels from src
// before handing it over, overlapping the (possibly remote) gather with
// the trainer's compute on earlier batches; src must therefore be safe
// to call concurrently with training.
func newPrefetcher(s sampler.Sampler, src DataSource, jobs []prefetchJob, workers int) *prefetcher {
	if workers < 1 {
		workers = 1
	}
	p := &prefetcher{
		jobs:    make(chan prefetchJob),
		results: make([]chan batchData, len(jobs)),
		window:  make(chan struct{}, workers+2),
		quit:    make(chan struct{}),
	}
	for i := range p.results {
		p.results[i] = make(chan batchData, 1)
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				var job prefetchJob
				var ok bool
				select {
				case job, ok = <-p.jobs:
					if !ok {
						return
					}
				case <-p.quit:
					return
				}
				rng := rand.New(rand.NewSource(job.seed))
				bd := batchData{mb: s.Sample(rng, job.targets)}
				if bd.mb != nil && len(bd.mb.Targets) > 0 {
					bd.x0, bd.err = src.GatherFeatures(bd.mb.InputNodes())
					if bd.err == nil {
						bd.labels, bd.err = src.TargetLabels(bd.mb.Targets)
					}
				}
				select {
				case p.results[job.index] <- bd:
				case <-p.quit:
					return
				}
			}
		}()
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for _, job := range jobs {
			select {
			case p.window <- struct{}{}: // blocks when the window is full
			case <-p.quit:
				return
			}
			select {
			case p.jobs <- job:
			case <-p.quit:
				return
			}
		}
		close(p.jobs)
	}()
	return p
}

// Next returns the prefetched data for the next job index, blocking
// until it is ready. It must be called at most len(jobs) times.
func (p *prefetcher) Next() batchData {
	bd := <-p.results[p.next]
	p.next++
	<-p.window // open a slot for the producer
	return bd
}

// Close stops the feeder and worker goroutines and waits for them to
// drain. It is idempotent and safe to call at any point — including
// mid-epoch when an error aborts consumption early, where it unblocks
// workers parked on the reorder buffer so nothing leaks.
func (p *prefetcher) Close() {
	p.stop.Do(func() { close(p.quit) })
	p.wg.Wait()
}
