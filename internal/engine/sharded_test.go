package engine

import (
	"math"
	"runtime/debug"
	"testing"

	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

func shardedTestDataset(t *testing.T) *graph.Dataset {
	t.Helper()
	spec := graph.DatasetSpec{
		Name:        "sharded-engine",
		ScaledNodes: 240, ScaledEdges: 1400,
		ScaledF0: 10, ScaledHidden: 8, ScaledClasses: 3,
		Homophily: 0.65, Exponent: 2.2, TrainFrac: 0.5,
	}
	ds, err := graph.Build(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func shardedEngineConfig(ds *graph.Dataset, numProcs int) Config {
	return Config{
		Dataset:       ds,
		Sampler:       sampler.NewNeighbor(ds.Graph, []int{5, 4, 3}),
		Model:         nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{10, 8, 8, 3}, Seed: 3},
		BatchSize:     32,
		LR:            0.01,
		NumProcs:      numProcs,
		SampleWorkers: 1,
		TrainWorkers:  1,
		Seed:          7,
	}
}

// The acceptance gate for the sharded training path: k-shard training
// with n replicas (shards unevenly mapped: k=3 on n=2) produces the
// same loss history and the same final weights as single-store training
// with the same n — the sampler runs over the assembled topology, the
// sources return bit-identical feature rows, so every gradient matches.
func TestShardedTrainingMatchesSingleStore(t *testing.T) {
	ds := shardedTestDataset(t)
	const numProcs, epochs = 2, 3

	base, err := New(shardedEngineConfig(ds, numProcs))
	if err != nil {
		t.Fatal(err)
	}
	var baseLoss []float64
	for ep := 0; ep < epochs; ep++ {
		res, err := base.RunEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
		baseLoss = append(baseLoss, res.MeanLoss)
	}

	ss := storedShardSet(t, ds, graph.ShardOptions{K: 3})
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	if skel.Features != nil || skel.Labels != nil {
		t.Fatal("skeleton materialised features/labels")
	}
	cfg := shardedEngineConfig(skel, numProcs)
	cfg.Sampler = sampler.NewNeighbor(skel.Graph, []int{5, 4, 3})
	cfg.Sources = shardSources(t, ss, numProcs)
	sharded, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < epochs; ep++ {
		res, err := sharded.RunEpoch(ep)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(res.MeanLoss - baseLoss[ep]); diff > 1e-9 {
			t.Fatalf("epoch %d: sharded loss %v, single-store %v (diff %v)", ep, res.MeanLoss, baseLoss[ep], diff)
		}
	}

	bw, sw := cloneWeights(base), cloneWeights(sharded)
	for i := range bw {
		if d := bw[i].MaxAbsDiff(sw[i]); d != 0 {
			t.Fatalf("weight tensor %d diverged by %v between sharded and single-store training", i, d)
		}
	}

	// Evaluation parity through the sources.
	accBase, err := base.Evaluate(ds.ValIdx)
	if err != nil {
		t.Fatal(err)
	}
	accSharded, err := sharded.Evaluate(skel.ValIdx)
	if err != nil {
		t.Fatal(err)
	}
	if accBase != accSharded {
		t.Fatalf("validation accuracy diverged: %v vs %v", accBase, accSharded)
	}
}

// storedShardSet writes ds as a shard set into a fresh temporary
// directory and opens it, as the repo benchmark does; the set is closed
// when the test ends.
func storedShardSet(t testing.TB, ds *graph.Dataset, opt graph.ShardOptions) *graph.ShardSet {
	t.Helper()
	_, paths, err := graph.WriteShardSet(ds, t.TempDir(), "engine", opt)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := graph.OpenShardSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	return ss
}

// shardSources returns n replicas' sources over ss, built the way the
// repo benchmark builds them.
func shardSources(t testing.TB, ss *graph.ShardSet, n int) []DataSource {
	t.Helper()
	srcs, _, err := NewShardSourcesOpts(ss, n, ShardSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

// newShardSource returns one replica's source over a k-shard set of ds.
func newShardSource(t testing.TB, ds *graph.Dataset, k int) DataSource {
	t.Helper()
	ss := storedShardSet(t, ds, graph.ShardOptions{K: k})
	return shardSources(t, ss, 1)[0]
}

// A shard set's source reads every node's label from one table, equal
// to the single-store labels.
func TestShardLabelsMatchDatasetWithoutMessages(t *testing.T) {
	ds := shardedTestDataset(t)
	src := newShardSource(t, ds, 3)
	ids := make([]graph.NodeID, ds.Graph.NumNodes)
	for i := range ids {
		ids[i] = graph.NodeID(len(ids) - 1 - i)
	}
	got, err := src.TargetLabels(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ids {
		if got[i] != ds.Labels[v] {
			t.Fatalf("node %d label %d, want %d", v, got[i], ds.Labels[v])
		}
	}
}

// A shard set's source gathers every node's row, in the order asked and
// with repeats, bit-equal to the single-store row, on an fp32 and an
// fp16 store.
func TestShardSourceRowsMatchDataset(t *testing.T) {
	for _, dt := range []graph.FeatDtype{graph.DtypeF32, graph.DtypeF16} {
		ds := shardedTestDataset(t)
		if err := ds.ConvertFeatures(dt); err != nil {
			t.Fatal(err)
		}
		src := newShardSource(t, ds, 3)
		ids := make([]graph.NodeID, 0, 2*ds.Graph.NumNodes)
		for v := ds.Graph.NumNodes - 1; v >= 0; v-- {
			ids = append(ids, graph.NodeID(v), graph.NodeID(v/2))
		}
		got, err := src.GatherFeatures(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range ids {
			for j, x := range got.Row(i) {
				if want := ds.Features.At(int(v), j); math.Float32bits(x) != math.Float32bits(want) {
					t.Fatalf("%s: node %d column %d is %v, want %v", dt, v, j, x, want)
				}
			}
		}
	}
}

// The gather writes every element of the matrix it draws from the
// replica's pool without zeroing it first: with that pool full of NaN
// matrices of the feature width, every row still equals the dataset's.
func TestGatherIgnoresPoisonedPool(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	ds := shardedTestDataset(t)
	ids := make([]graph.NodeID, 0, ds.Graph.NumNodes)
	for v := ds.Graph.NumNodes - 1; v >= 0; v -= 3 {
		ids = append(ids, graph.NodeID(v))
	}
	poisoned := func() *tensor.BufPool {
		bufs := tensor.NewBufPool()
		for c := 0; c < 4; c++ {
			m := tensor.New(len(ids), ds.Features.Cols)
			m.Fill(float32(math.NaN()))
			bufs.Put(m)
		}
		return bufs
	}
	got, err := datasetSource{ds: ds, bufs: poisoned()}.GatherFeatures(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ids {
		for j, x := range got.Row(i) {
			if want := ds.Features.At(int(v), j); math.Float32bits(x) != math.Float32bits(want) {
				t.Fatalf("node %d column %d is %v, want %v", v, j, x, want)
			}
		}
	}
}

// A sharded exact engine built through NewShardSourcesOpts allocates
// about what a single-store engine does on the same dataset per
// steady-state step: its sources gather into the replica's buffer pool
// and keep nothing.
func TestShardedAllocsNearSingleStore(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	ds := shardedTestDataset(t)
	src := newShardSource(t, ds, 3)
	allocsPerIter := func(cfg Config) float64 {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		epoch, iters := 0, 0
		run := func() {
			res, err := e.RunEpoch(epoch)
			if err != nil {
				t.Fatal(err)
			}
			epoch, iters = epoch+1, res.NumIters
		}
		run()
		run()
		return testing.AllocsPerRun(5, run) / float64(iters)
	}
	cfg := shardedEngineConfig(ds, 2)
	single := allocsPerIter(cfg)
	cfg.Sources = []DataSource{src, src}
	sharded := allocsPerIter(cfg)
	t.Logf("allocations per iteration: single store %.0f, sharded %.0f", single, sharded)
	if sharded > 2*single {
		t.Fatalf("sharded engine allocates %.0f objects per iteration, single store %.0f: more than 2×", sharded, single)
	}
}

// The assembled topology the sharded path samples over is identical to
// the original graph — same RowPtr, same Col — so sampling seeds land
// on the same neighbours.
func TestShardedSkeletonTopologyExact(t *testing.T) {
	ds := shardedTestDataset(t)
	ss := storedShardSet(t, ds, graph.ShardOptions{K: 4})
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	if skel.Graph.NumNodes != ds.Graph.NumNodes || skel.Graph.NumEdges() != ds.Graph.NumEdges() {
		t.Fatal("assembled topology has different shape")
	}
	for v := 0; v <= ds.Graph.NumNodes; v++ {
		if skel.Graph.RowPtr[v] != ds.Graph.RowPtr[v] {
			t.Fatalf("RowPtr diverges at %d", v)
		}
	}
	for i := range ds.Graph.Col {
		if skel.Graph.Col[i] != ds.Graph.Col[i] {
			t.Fatalf("Col diverges at %d", i)
		}
	}
	for si, pair := range [][2][]graph.NodeID{
		{skel.TrainIdx, ds.TrainIdx}, {skel.ValIdx, ds.ValIdx}, {skel.TestIdx, ds.TestIdx},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("split %d length differs", si)
		}
		for j := range pair[0] {
			if pair[0][j] != pair[1][j] {
				t.Fatalf("split %d order diverges at %d (sharding must preserve split order, not just membership)", si, j)
			}
		}
	}
}

// Config validation: sources must match the replica count, and a
// skeleton dataset without sources is rejected before training; the
// deprecated per-replica builder refuses zero replicas.
func TestShardedConfigValidation(t *testing.T) {
	ds := shardedTestDataset(t)
	ss := storedShardSet(t, ds, graph.ShardOptions{K: 2})
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	cfg := shardedEngineConfig(skel, 2)
	cfg.Sampler = sampler.NewNeighbor(skel.Graph, []int{5, 4, 3})
	if _, err := New(cfg); err == nil {
		t.Fatal("skeleton dataset without sources accepted")
	}
	cfg.Sources = shardSources(t, ss, 1)
	if _, err := New(cfg); err == nil {
		t.Fatal("source/replica count mismatch accepted")
	}
	cfg.Sources = shardSources(t, ss, 2)
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewShardSourcesOpts(ss, 0, ShardSourceOptions{}); err == nil {
		t.Fatal("zero replicas accepted")
	}
}
