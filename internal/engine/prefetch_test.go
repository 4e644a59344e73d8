package engine

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"argo/internal/graph"
	"argo/internal/sampler"
)

// countingSampler wraps a sampler and records concurrency.
type countingSampler struct {
	inner       sampler.Sampler
	inFlight    int32
	maxInFlight int32
}

func (c *countingSampler) Name() string   { return c.inner.Name() }
func (c *countingSampler) NumLayers() int { return c.inner.NumLayers() }
func (c *countingSampler) Sample(rng *rand.Rand, targets []graph.NodeID) *sampler.MiniBatch {
	n := atomic.AddInt32(&c.inFlight, 1)
	for {
		max := atomic.LoadInt32(&c.maxInFlight)
		if n <= max || atomic.CompareAndSwapInt32(&c.maxInFlight, max, n) {
			break
		}
	}
	mb := c.inner.Sample(rng, targets)
	atomic.AddInt32(&c.inFlight, -1)
	return mb
}

func prefetchJobs(t *testing.T, ds *graph.Dataset, n int) []prefetchJob {
	t.Helper()
	jobs := make([]prefetchJob, n)
	for i := range jobs {
		lo := (i * 10) % len(ds.TrainIdx)
		hi := lo + 10
		if hi > len(ds.TrainIdx) {
			hi = len(ds.TrainIdx)
		}
		jobs[i] = prefetchJob{seed: int64(1000 + i), targets: ds.TrainIdx[lo:hi]}
	}
	return jobs
}

// The batch sequence must be identical for any worker count: per-job
// seeds plus the reorder buffer make sampling parallelism invisible.
func TestPrefetcherDeterministicAcrossWorkerCounts(t *testing.T) {
	ds := testDataset(t)
	smp := sampler.NewNeighbor(ds.Graph, []int{4, 4})
	collect := func(workers int) []int64 {
		jobs := prefetchJobs(t, ds, 20)
		p := newPrefetcher(smp, datasetSource{ds: ds}, jobs, workers)
		var edges []int64
		for range jobs {
			edges = append(edges, p.Next().mb.Stats.SampledEdges)
		}
		p.Close()
		return edges
	}
	ref := collect(1)
	for _, w := range []int{2, 4, 8} {
		got := collect(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: batch %d differs (%d vs %d edges)", w, i, got[i], ref[i])
			}
		}
	}
}

// The prefetch window must bound how far sampling runs ahead.
func TestPrefetcherWindowBounded(t *testing.T) {
	ds := testDataset(t)
	cs := &countingSampler{inner: sampler.NewNeighbor(ds.Graph, []int{4, 4})}
	jobs := prefetchJobs(t, ds, 30)
	const workers = 3
	p := newPrefetcher(cs, datasetSource{ds: ds}, jobs, workers)
	for range jobs {
		p.Next()
	}
	p.Close()
	if max := atomic.LoadInt32(&cs.maxInFlight); max > workers {
		t.Fatalf("%d samplers ran concurrently, worker bound is %d", max, workers)
	}
}

// Batches must arrive strictly in job-index order regardless of which
// worker finishes first (the reorder buffer contract).
func TestPrefetcherOrdering(t *testing.T) {
	ds := testDataset(t)
	smp := sampler.NewNeighbor(ds.Graph, []int{4, 4})
	jobs := prefetchJobs(t, ds, 25)
	// Tag each job with a distinct single target so order is observable.
	for i := range jobs {
		jobs[i].targets = ds.TrainIdx[i : i+1]
	}
	p := newPrefetcher(smp, datasetSource{ds: ds}, jobs, 4)
	for i := range jobs {
		mb := p.Next().mb
		if mb.Targets[0] != ds.TrainIdx[i] {
			t.Fatalf("batch %d out of order", i)
		}
	}
	p.Close()
}

// The fetch stage runs on the sampling workers and attaches features
// and labels that are identical to a direct gather from the source, in
// job order, for any worker count.
func TestFetchingPrefetcherAttachesGatheredData(t *testing.T) {
	ds := testDataset(t)
	smp := sampler.NewNeighbor(ds.Graph, []int{4, 4})
	src := datasetSource{ds: ds}
	for _, workers := range []int{1, 4} {
		jobs := prefetchJobs(t, ds, 12)
		p := newPrefetcher(smp, src, jobs, workers)
		for i := 0; i < len(jobs); i++ {
			bd := p.Next()
			if bd.err != nil {
				t.Fatal(bd.err)
			}
			if bd.x0 == nil || bd.labels == nil {
				t.Fatalf("workers=%d: job %d missing prefetched data", workers, i)
			}
			want, err := src.GatherFeatures(bd.mb.InputNodes())
			if err != nil {
				t.Fatal(err)
			}
			if !bd.x0.Equal(want) {
				t.Fatalf("workers=%d: job %d prefetched features differ from a direct gather", workers, i)
			}
			if len(bd.labels) != len(bd.mb.Targets) {
				t.Fatalf("workers=%d: job %d has %d labels for %d targets", workers, i, len(bd.labels), len(bd.mb.Targets))
			}
		}
		p.Close()
	}
}

func TestPrefetcherEmptyJobTargets(t *testing.T) {
	ds := testDataset(t)
	smp := sampler.NewNeighbor(ds.Graph, []int{4, 4})
	jobs := []prefetchJob{{seed: 1, targets: nil}}
	p := newPrefetcher(smp, datasetSource{ds: ds}, jobs, 2)
	mb := p.Next().mb
	if len(mb.Targets) != 0 {
		t.Fatal("empty job should produce an empty batch")
	}
	p.Close()
}
