package argo

import (
	"context"
	"testing"

	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// newLocalRegimeTrainer builds a sharded trainer under the partition-
// local sampling regime.
func newLocalRegimeTrainer(t *testing.T, ds *graph.Dataset, transport string) *GNNTrainer {
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
		SamplingRegime: "local", LocalFanouts: []int{4, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestSnapshotHaloStatsAcrossRelaunches: per-interval snapshots sum to
// the whole-run total even when a process-count change retires the
// exchange mid-run, and the cumulative HaloStats view keeps
// accumulating untouched — the regression gate for the snapshot seam.
func TestSnapshotHaloStatsAcrossRelaunches(t *testing.T) {
	ds := shardedCoreDataset(t)
	tr := newShardedTrainer(t, ds, "")
	ctx := context.Background()

	var snapSum HaloStats
	var prevTotal HaloStats
	for _, cfg := range []Config{
		{Procs: 1, SampleCores: 1, TrainCores: 1},
		{Procs: 2, SampleCores: 1, TrainCores: 1}, // re-launch: exchange retired + rebuilt
		{Procs: 1, SampleCores: 1, TrainCores: 2}, // and again
	} {
		if _, err := tr.Step(ctx, cfg, 2); err != nil {
			t.Fatal(err)
		}
		delta := tr.SnapshotHaloStats()
		if delta.LocalRows == 0 {
			t.Fatalf("phase %+v: empty snapshot delta", cfg)
		}
		snapSum.Add(delta)
		total := tr.HaloStats()
		if total.LocalRows < prevTotal.LocalRows || total.RemoteRows < prevTotal.RemoteRows {
			t.Fatalf("cumulative totals went backwards: %+v then %+v", prevTotal, total)
		}
		prevTotal = total
		if snapSum != total {
			t.Fatalf("snapshot deltas sum to %+v, cumulative total is %+v", snapSum, total)
		}
	}
	// An idle interval snapshots as zero without disturbing the total.
	if idle := tr.SnapshotHaloStats(); idle != (HaloStats{}) {
		t.Fatalf("idle snapshot non-zero: %+v", idle)
	}
	if tr.HaloStats() != prevTotal {
		t.Fatal("idle snapshot disturbed the cumulative total")
	}
}

// TestLocalRegimeTrainerAcrossRelaunches: the partition samplers and
// owned-target sets are rebuilt with the exchange on every process-
// count change, training converges, and the run is reproducible
// bit-for-bit across transports.
func TestLocalRegimeTrainerAcrossRelaunches(t *testing.T) {
	ds := shardedCoreDataset(t)
	run := func(transport string) ([]float64, HaloStats) {
		tr := newLocalRegimeTrainer(t, ds, transport)
		ctx := context.Background()
		for _, cfg := range []Config{
			{Procs: 1, SampleCores: 1, TrainCores: 1},
			{Procs: 2, SampleCores: 1, TrainCores: 1},
			{Procs: 1, SampleCores: 1, TrainCores: 2},
		} {
			if _, err := tr.Step(ctx, cfg, 2); err != nil {
				t.Fatal(err)
			}
		}
		return tr.LossHistory(), tr.HaloStats()
	}
	inLoss, inStats := run("")
	tcpLoss, tcpStats := run("tcp")
	if len(inLoss) != 6 {
		t.Fatalf("expected 6 epochs, got %d", len(inLoss))
	}
	for i := range inLoss {
		if inLoss[i] != tcpLoss[i] {
			t.Fatalf("epoch %d: local-regime loss diverged across transports: %v vs %v", i, inLoss[i], tcpLoss[i])
		}
	}
	if inStats.RemoteRows != tcpStats.RemoteRows {
		t.Fatalf("logical traffic diverged across transports: %+v vs %+v", inStats, tcpStats)
	}
}

// TestLocalRegimeOptionValidation: the regime refuses to start without
// its inputs.
func TestLocalRegimeOptionValidation(t *testing.T) {
	ds := shardedCoreDataset(t)
	base := GNNTrainerOptions{
		Dataset: ds, Sampler: sampler.NewNeighbor(ds.Graph, []int{4, 3}),
		Model:     nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{8, 6, 3}, Seed: 5},
		BatchSize: 24, LR: 0.01, Seed: 3,
	}
	opts := base
	opts.SamplingRegime = "local"
	if _, err := NewGNNTrainer(opts); err == nil {
		t.Fatal("local regime without a shard set accepted")
	}
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	opts.Shards = ss
	if _, err := NewGNNTrainer(opts); err == nil {
		t.Fatal("local regime without fanouts accepted")
	}
	opts.LocalFanouts = []int{4, 3}
	if _, err := NewGNNTrainer(opts); err != nil {
		t.Fatal(err)
	}
}

// TestTransportValidation: an unknown transport name is refused by the
// constructor, not at the first Step inside a tuner's search epoch, and
// a known one is what the exchange stats report from the start.
func TestTransportValidation(t *testing.T) {
	ds := shardedCoreDataset(t)
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		transport, reported string
		ok                  bool
	}{
		{"", "inproc", true},
		{"inproc", "inproc", true},
		{"tcp", "tcp", true},
		{"tcpp", "", false},
		{"TCP", "", false},
	} {
		tr, err := NewGNNTrainer(GNNTrainerOptions{
			Dataset: skel, Sampler: sampler.NewNeighbor(skel.Graph, []int{4, 3}),
			Model:     nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{8, 6, 3}, Seed: 5},
			BatchSize: 24, LR: 0.01, Seed: 3, Shards: ss, Transport: c.transport,
		})
		if !c.ok {
			if err == nil {
				t.Fatalf("transport %q accepted (exchange reports %q)", c.transport, tr.ExchangeStats().Transport)
			}
			continue
		}
		if err != nil {
			t.Fatalf("transport %q: %v", c.transport, err)
		}
		if got := tr.ExchangeStats().Transport; got != c.reported {
			t.Fatalf("transport %q reported as %q, want %q", c.transport, got, c.reported)
		}
		tr.Close()
	}
}
