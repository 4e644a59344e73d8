package argo

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

func shardedCoreDataset(t *testing.T) *graph.Dataset {
	t.Helper()
	spec := graph.DatasetSpec{
		Name:        "sharded-core",
		ScaledNodes: 200, ScaledEdges: 1200,
		ScaledF0: 8, ScaledHidden: 6, ScaledClasses: 3,
		Homophily: 0.65, Exponent: 2.2, TrainFrac: 0.5,
	}
	ds, err := graph.Build(spec, 13)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// The shard-aware trainer survives auto-tuner re-launches: as the
// process count changes the replica→shard mapping and halo exchange
// are rebuilt, weights carry over, and the loss trace stays equal to
// the single-store trainer driven through the identical configuration
// sequence.
func TestShardedTrainerMatchesAcrossRelaunches(t *testing.T) {
	ds := shardedCoreDataset(t)
	newSampler := func(g *graph.CSR) sampler.Sampler { return sampler.NewNeighbor(g, []int{4, 3}) }
	model := nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{8, 6, 3}, Seed: 5}

	single, err := NewGNNTrainer(GNNTrainerOptions{
		Dataset: ds, Sampler: newSampler(ds.Graph), Model: model,
		BatchSize: 24, LR: 0.01, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewGNNTrainer(GNNTrainerOptions{
		Dataset: skel, Sampler: newSampler(skel.Graph), Model: model,
		BatchSize: 24, LR: 0.01, Seed: 3, Shards: ss,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	// A config sequence with changing process counts forces two
	// re-launches (1→2→1 replicas) on each trainer.
	cfgs := []Config{
		{Procs: 1, SampleCores: 1, TrainCores: 1},
		{Procs: 2, SampleCores: 1, TrainCores: 1},
		{Procs: 1, SampleCores: 1, TrainCores: 2},
	}
	ctx := context.Background()
	for _, cfg := range cfgs {
		if _, err := single.Step(ctx, cfg, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Step(ctx, cfg, 2); err != nil {
			t.Fatal(err)
		}
	}

	a, b := single.LossHistory(), sharded.LossHistory()
	if len(a) != len(b) || len(a) != 2*len(cfgs) {
		t.Fatalf("loss history lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if diff := math.Abs(a[i] - b[i]); diff > 1e-9 {
			t.Fatalf("epoch %d: single-store loss %v, sharded %v", i, a[i], b[i])
		}
	}
	if st := single.HaloStats(); st.RemoteRows != 0 || st.LocalRows != 0 {
		t.Fatalf("single-store trainer reported halo traffic: %+v", st)
	}
	// Cumulative across re-launches: traffic from the retired n=2
	// exchange must survive into the final total.
	if st := sharded.HaloStats(); st.LocalRows == 0 || st.RemoteRows == 0 {
		t.Fatalf("sharded trainer lost halo accounting across re-launches: %+v", st)
	}

	accA, err := single.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	accB, err := sharded.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if accA != accB {
		t.Fatalf("validation accuracy diverged: %v vs %v", accA, accB)
	}
}

// newShardedTrainer builds a fresh sharded trainer over its own shard
// set for the relaunch-accounting tests.
func newShardedTrainer(t *testing.T, ds *graph.Dataset, transport string) *GNNTrainer {
	t.Helper()
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewGNNTrainer(GNNTrainerOptions{
		Dataset: skel, Sampler: sampler.NewNeighbor(skel.Graph, []int{4, 3}),
		Model:     nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{8, 6, 3}, Seed: 5},
		BatchSize: 24, LR: 0.01, Seed: 3, Shards: ss, Transport: transport,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// relaunchSequence drives a trainer through process-count changes
// (1→2→1), capturing the exchange summary after every phase.
func relaunchSequence(t *testing.T, tr *GNNTrainer) []*ExchangeStats {
	t.Helper()
	ctx := context.Background()
	var snaps []*ExchangeStats
	for _, cfg := range []Config{
		{Procs: 1, SampleCores: 1, TrainCores: 1},
		{Procs: 2, SampleCores: 1, TrainCores: 1},
		{Procs: 1, SampleCores: 1, TrainCores: 2},
	} {
		if _, err := tr.Step(ctx, cfg, 2); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, tr.ExchangeStats())
	}
	return snaps
}

// The regression gate for satellite "traffic accounting survives a
// mid-run process-count change": totals and the per-peer matrix must
// accumulate monotonically across the 1→2→1 relaunches (the retired
// n=2 exchange's peer rows survive into the n=1 phase), two identical
// runs must pin byte-identical serialized stats, and the peer matrix
// must conserve every routed row.
func TestExchangeAccountingSurvivesRelaunches(t *testing.T) {
	ds := shardedCoreDataset(t)
	snaps := relaunchSequence(t, newShardedTrainer(t, ds, ""))

	// Phase 2 (n=2) generated cross-replica traffic; phase 3 (n=1) must
	// retain it even though the live exchange has a single replica and
	// no peers at all.
	after2, after3 := snaps[1], snaps[2]
	if after2.RemoteRows == 0 || after2.Messages == 0 {
		t.Fatalf("n=2 phase recorded no remote traffic: %+v", after2)
	}
	if len(after2.Peers) == 0 {
		t.Fatal("n=2 phase recorded no peer edges")
	}
	if after3.RemoteRows != after2.RemoteRows || after3.RemoteBytes != after2.RemoteBytes || after3.Messages != after2.Messages {
		t.Fatalf("relaunch to n=1 lost remote totals: %+v then %+v", after2, after3)
	}
	if after3.LocalRows <= after2.LocalRows {
		t.Fatalf("n=1 phase recorded no local traffic on top of %+v: %+v", after2, after3)
	}
	if len(after3.Peers) != len(after2.Peers) {
		t.Fatalf("relaunch dropped peer edges: %d then %d", len(after2.Peers), len(after3.Peers))
	}
	for i := range after3.Peers {
		if after3.Peers[i] != after2.Peers[i] {
			t.Fatalf("peer edge %d changed across relaunch: %+v then %+v", i, after2.Peers[i], after3.Peers[i])
		}
	}
	var peerRows int64
	for _, p := range after3.Peers {
		peerRows += p.Rows
		if p.From == p.To {
			t.Fatalf("self edge in peer matrix: %+v", p)
		}
	}
	if peerRows != after3.RemoteRows {
		t.Fatalf("peer matrix conserves %d rows, totals say %d", peerRows, after3.RemoteRows)
	}

	// Pin the whole-run accounting: an identical second run serialises
	// byte-identically (deterministic totals AND deterministic peer
	// order in the JSON the CLI embeds in -loss-json and the report).
	again := relaunchSequence(t, newShardedTrainer(t, ds, ""))
	a, err := json.Marshal(after3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(again[2])
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("exchange accounting not reproducible:\n%s\n%s", a, b)
	}
}

// The TCP transport must survive relaunches too (old listeners closed,
// new ones bound) with accounting identical to inproc.
func TestRelaunchOverTCPMatchesInproc(t *testing.T) {
	ds := shardedCoreDataset(t)
	inproc := relaunchSequence(t, newShardedTrainer(t, ds, ""))
	tcp := relaunchSequence(t, newShardedTrainer(t, ds, "tcp"))
	a, b := inproc[2], tcp[2]
	if a.Transport != "inproc" || b.Transport != "tcp" {
		t.Fatalf("transports %q/%q", a.Transport, b.Transport)
	}
	b.Transport = a.Transport
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("tcp accounting diverged from inproc:\n%s\n%s", ja, jb)
	}
}

// Single-store trainers report no exchange at all.
func TestExchangeStatsNilForSingleStore(t *testing.T) {
	ds := shardedCoreDataset(t)
	tr, err := NewGNNTrainer(GNNTrainerOptions{
		Dataset: ds, Sampler: sampler.NewNeighbor(ds.Graph, []int{4, 3}),
		Model:     nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{8, 6, 3}, Seed: 5},
		BatchSize: 24, LR: 0.01, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Step(context.Background(), Config{Procs: 1, SampleCores: 1, TrainCores: 1}, 1); err != nil {
		t.Fatal(err)
	}
	if st := tr.ExchangeStats(); st != nil {
		t.Fatalf("single-store trainer reported exchange stats: %+v", st)
	}
}
