package engine

import (
	"math"
	"reflect"
	"testing"

	"argo/internal/datasets"
	"argo/internal/ddp"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
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

	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	if skel.Features != nil || skel.Labels != nil {
		t.Fatal("skeleton materialised features/labels")
	}
	sources, ex, err := NewShardSourcesOpts(ss, numProcs, ShardSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shardedEngineConfig(skel, numProcs)
	cfg.Sampler = sampler.NewNeighbor(skel.Graph, []int{5, 4, 3})
	cfg.Sources = sources
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

	// With 3 shards on 2 replicas the batch shares cross ownership
	// boundaries constantly: the exchange must have moved real traffic.
	total := ex.Summary()
	if total.RemoteRows == 0 || total.RemoteBytes == 0 {
		t.Fatalf("no halo traffic recorded: %+v", total)
	}
	for _, p := range total.Peers {
		if p.From < 0 || p.From >= numProcs || p.To < 0 || p.To >= numProcs || p.From == p.To {
			t.Fatalf("traffic edge %d→%d outside %d replicas", p.From, p.To, numProcs)
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

// Every replica reads every node's label from the shared table, equal
// to the single-store labels, without a message; an id outside
// [0, NumNodes) is refused.
func TestShardLabelsMatchDatasetWithoutMessages(t *testing.T) {
	ds := shardedTestDataset(t)
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	sources, ex, err := NewShardSourcesOpts(ss, 2, ShardSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ids := make([]graph.NodeID, ds.Graph.NumNodes)
	for i := range ids {
		ids[i] = graph.NodeID(len(ids) - 1 - i)
	}
	for r, src := range sources {
		got, err := src.TargetLabels(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range ids {
			if got[i] != ds.Labels[v] {
				t.Fatalf("replica %d: node %d label %d, want %d", r, v, got[i], ds.Labels[v])
			}
		}
		for _, bad := range []graph.NodeID{-1, graph.NodeID(ds.Graph.NumNodes)} {
			if _, err := src.TargetLabels([]graph.NodeID{0, bad}); err == nil {
				t.Fatalf("replica %d: label of node %d accepted", r, bad)
			}
		}
	}
	if st := ex.Summary().HaloStats; st != (ddp.HaloStats{}) {
		t.Fatalf("label lookups moved exchange traffic: %+v", st)
	}
}

// exchangeTraffic trains two exact-regime epochs of arxiv-sim, stored as
// dt and cut into 4 shards on 2 replicas with s sampling workers each,
// and returns the exchange's run totals with the per-peer matrix.
func exchangeTraffic(t *testing.T, dt graph.FeatDtype, s int) ddp.ExchangeStats {
	t.Helper()
	const seed, numProcs = 7, 2
	ds, err := datasets.Resolve("arxiv-sim", seed)
	if err != nil {
		t.Fatal(err)
	}
	// Converting before sharding puts the dtype in the shard manifest,
	// which is what negotiates the wire format.
	if err := ds.ConvertFeatures(dt); err != nil {
		t.Fatal(err)
	}
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	sources, ex, err := NewShardSourcesOpts(ss, numProcs, ShardSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	e, err := New(Config{
		Dataset:       skel,
		Sampler:       sampler.NewNeighbor(skel.Graph, []int{10, 5}),
		Model:         nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Spec.ScaledF0, ds.Spec.ScaledHidden, ds.NumClasses}, Seed: seed},
		BatchSize:     64,
		LR:            0.01,
		NumProcs:      numProcs,
		SampleWorkers: s,
		TrainWorkers:  1,
		Seed:          seed,
		Sources:       sources,
	})
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 2; ep++ {
		if _, err := e.RunEpoch(ep); err != nil {
			t.Fatal(err)
		}
	}
	return ex.Summary()
}

// The fp16 feature pipeline's wire claim: an fp16 shard set moves the
// same logical halo traffic as the fp32 one — rows, logical bytes and
// messages are dtype-independent — in at most 0.55× the framed bytes
// (6 805 276 → 3 461 532, 0.509×, when written), and the whole traffic
// record, per-peer matrix included, is a pure function of the seed.
func TestF16ShardSetHalvesWireBytes(t *testing.T) {
	w32 := exchangeTraffic(t, graph.DtypeF32, 1)
	w16 := exchangeTraffic(t, graph.DtypeF16, 1)
	if again := exchangeTraffic(t, graph.DtypeF16, 1); !reflect.DeepEqual(w16, again) {
		t.Fatalf("fp16 exchange traffic differs between two runs of one seed:\n%+v\n%+v", w16, again)
	}
	if w32.RemoteRows == 0 || w32.Messages == 0 {
		t.Fatalf("no halo traffic recorded: %+v", w32)
	}
	if w16.LocalRows != w32.LocalRows || w16.RemoteRows != w32.RemoteRows ||
		w16.RemoteBytes != w32.RemoteBytes || w16.Messages != w32.Messages {
		t.Fatalf("logical traffic changed with the store dtype:\nfp32 %+v\nfp16 %+v", w32, w16)
	}
	ratio := float64(w16.WireBytes) / float64(w32.WireBytes)
	if ratio > 0.55 {
		t.Fatalf("wire bytes %d → %d: fp16/fp32 ratio %.3f > 0.55", w32.WireBytes, w16.WireBytes, ratio)
	}
	t.Logf("wire bytes %d → %d (%.3f×) for %d remote rows in %d messages",
		w32.WireBytes, w16.WireBytes, ratio, w32.RemoteRows, w32.Messages)
}

// With two sampling workers, which batch first touches a cached row
// depends on scheduling, so the message count may vary run to run. The
// rows and logical bytes moved may not: each distinct feature row
// crosses once, and the rows a run touches are fixed by the batch
// stream, which is the same for every s.
func TestExchangeRowCountsIgnoreSampleWorkers(t *testing.T) {
	one := exchangeTraffic(t, graph.DtypeF32, 1)
	for run := 0; run < 2; run++ {
		two := exchangeTraffic(t, graph.DtypeF32, 2)
		if two.RemoteRows != one.RemoteRows || two.RemoteBytes != one.RemoteBytes {
			t.Fatalf("run %d at s = 2 moved %d remote rows (%d bytes), s = 1 moved %d (%d bytes)",
				run, two.RemoteRows, two.RemoteBytes, one.RemoteRows, one.RemoteBytes)
		}
	}
}

// The assembled topology the sharded path samples over is identical to
// the original graph — same RowPtr, same Col — so sampling seeds land
// on the same neighbours.
func TestShardedSkeletonTopologyExact(t *testing.T) {
	ds := shardedTestDataset(t)
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
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
// skeleton dataset without sources is rejected before training.
func TestShardedConfigValidation(t *testing.T) {
	ds := shardedTestDataset(t)
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	cfg := shardedEngineConfig(skel, 2)
	cfg.Sampler = sampler.NewNeighbor(skel.Graph, []int{5, 4, 3})
	if _, err := New(cfg); err == nil {
		t.Fatal("skeleton dataset without sources accepted")
	}
	sources, _, err := NewShardSourcesOpts(ss, 2, ShardSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sources = sources[:1]
	if _, err := New(cfg); err == nil {
		t.Fatal("source/replica count mismatch accepted")
	}
	cfg.Sources = sources
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewShardSourcesOpts(ss, 0, ShardSourceOptions{}); err == nil {
		t.Fatal("zero replicas accepted")
	}
}
