package engine

import (
	"encoding/json"
	"runtime"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// The exchange's whole traffic record — totals and per-peer matrix — of
// two seeded runs (tiny, 2-layer SAGE, fan-outs 4/4, batch 32, 2 epochs,
// seed 7, 2 replicas, s = t = 1). Both rows were recorded when labels
// moved to a table shared by all replicas, so only feature rows cross
// the exchange: the exact regime's message count halved, and the local
// regime's feature traffic is the same rows in the same messages, each
// response 4 bytes shorter.
// Routing, batching and accounting must reproduce them to the byte on
// both transports; only the transport's name differs.
const (
	pinnedExactK3 = `{"transport":"inproc","local_rows":104,"remote_rows":109,"remote_bytes":6976,"wire_bytes":7604,"messages":8,` +
		`"peers":[{"from":0,"to":1,"rows":38,"bytes":2432,"wire_bytes":2680,"messages":4},{"from":1,"to":0,"rows":71,"bytes":4544,"wire_bytes":4924,"messages":4}]}`
	pinnedLocalK4 = `{"transport":"inproc","local_rows":110,"remote_rows":67,"remote_bytes":4288,"wire_bytes":4724,"messages":7,` +
		`"peers":[{"from":0,"to":1,"rows":35,"bytes":2240,"wire_bytes":2476,"messages":4},{"from":1,"to":0,"rows":32,"bytes":2048,"wire_bytes":2248,"messages":3}]}`
)

func TestExchangeTrafficMatchesPinnedParent(t *testing.T) {
	const seed, numProcs = 7, 2
	fanouts := []int{4, 4}
	for _, c := range []struct {
		k      int
		regime SamplingRegime
		want   string
	}{{3, RegimeExact, pinnedExactK3}, {4, RegimeLocal, pinnedLocalK4}} {
		for _, transport := range []string{"inproc", "tcp"} {
			ds, err := datasets.Resolve("tiny", seed)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: c.k, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			defer ss.Close()
			skel, err := ss.Skeleton()
			if err != nil {
				t.Fatal(err)
			}
			sources, ex, err := NewShardSourcesOpts(ss, numProcs, ShardSourceOptions{Transport: transport})
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			cfg := Config{
				Dataset:       skel,
				Sampler:       sampler.NewNeighbor(skel.Graph, fanouts),
				Model:         nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Spec.ScaledF0, ds.Spec.ScaledHidden, ds.NumClasses}, Seed: seed},
				BatchSize:     32,
				LR:            0.01,
				NumProcs:      numProcs,
				SampleWorkers: 1,
				TrainWorkers:  1,
				Seed:          seed,
				Sources:       sources,
			}
			if c.regime == RegimeLocal {
				setup, err := NewPartitionSetup(ss, skel, numProcs, fanouts)
				if err != nil {
					t.Fatal(err)
				}
				cfg.SamplingRegime, cfg.LocalSamplers, cfg.LocalTargets = RegimeLocal, setup.Samplers, setup.Targets
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for ep := 0; ep < 2; ep++ {
				if _, err := e.RunEpoch(ep); err != nil {
					t.Fatal(err)
				}
			}
			got := ex.Summary()
			if got.Transport != transport {
				t.Fatalf("summary names transport %q, want %q", got.Transport, transport)
			}
			got.Transport = "inproc"
			if b, _ := json.Marshal(got); string(b) != c.want {
				t.Fatalf("k=%d %v over %s: exchange traffic\n%s\nwant the parent's\n%s", c.k, c.regime, transport, b, c.want)
			}
		}
	}
}

// allocatedBy returns the fewest heap bytes one call of f allocates over
// a few tries (a background allocation can only add to a reading).
func allocatedBy(f func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// A call's per-peer batches are sized from the call itself. On a shard
// set whose manifest cut is ≥ 65 536 arcs — where the buffers used to be
// sized from the cut, 786 KB per peer and call — a 2 500-id gather
// allocates less than twice its result, and a 64-id label lookup, a read
// of the shared label table, allocates only its result.
func TestExchangeCallsAllocateFromTheirOwnSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocations cost")
	}
	ds, err := datasets.Resolve("arxiv-sim@x16", 7)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if cut := ss.Manifest.TotalCutArcs(); cut < 1<<16 {
		t.Fatalf("shard set cuts %d arcs; the gate needs ≥ 65536", cut)
	}
	sources, ex, err := NewShardSourcesOpts(ss, 2, ShardSourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ids := make([]graph.NodeID, 2500)
	for i := range ids {
		ids[i] = graph.NodeID(i * 7 % ds.Graph.NumNodes)
	}
	featBytes := uint64(len(ids) * ds.Features.Cols * 4)
	if got := allocatedBy(func() {
		if _, err := sources[0].GatherFeatures(ids); err != nil {
			t.Fatal(err)
		}
	}); got >= 2*featBytes {
		t.Errorf("a %d-id gather allocated %d bytes for a %d-byte result", len(ids), got, featBytes)
	}
	labelBytes := uint64(64 * 4)
	if got := allocatedBy(func() {
		if _, err := sources[0].TargetLabels(ids[:64]); err != nil {
			t.Fatal(err)
		}
	}); got > labelBytes {
		t.Errorf("a 64-id label lookup allocated %d bytes for a %d-byte result", got, labelBytes)
	}
}
