package engine

import (
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// BenchmarkEpoch measures a real training epoch with the multi-process
// engine, the workload ARGO's online tuner times on live systems: the
// scaled unit dataset on 1, 2 and 4 replicas, and one replica at the
// shape of the repo benchmark's train_single workload (arxiv-sim@x16 cut
// to 512 targets, fan-outs 15/10/5, 3-layer SAGE, n = s = t = 1) — the
// epoch whose dense products tensor's *Tall benchmarks time. shard_exact is
// the shape of train_shard_exact: the same graph cut to 2 048 targets
// and written as 4 file-backed shards, fan-outs 10/5, 2 replicas reading
// the set's one feature table, timed after two warm epochs (pool growth).
func BenchmarkEpoch(b *testing.B) {
	run := func(name string, warm int, config func(b *testing.B) Config) {
		b.Run(name, func(b *testing.B) {
			e, err := New(config(b))
			if err != nil {
				b.Fatal(err)
			}
			for ep := 0; ep < warm; ep++ {
				if _, err := e.RunEpoch(ep); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunEpoch(warm + i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{1, 2, 4} {
		run(map[int]string{1: "1proc", 2: "2proc", 4: "4proc"}[n], 0, func(b *testing.B) Config {
			return testConfig(b, testDataset(b), n)
		})
	}
	run("train_single", 0, func(b *testing.B) Config {
		ds, err := datasets.Resolve("arxiv-sim@x16", 7)
		if err != nil {
			b.Fatal(err)
		}
		ds.TrainIdx = ds.TrainIdx[:512]
		return Config{
			Dataset:       ds,
			Sampler:       sampler.NewNeighbor(ds.Graph, []int{15, 10, 5}),
			Model:         nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Spec.ScaledF0, ds.Spec.ScaledHidden, ds.Spec.ScaledHidden, ds.NumClasses}, Seed: 3},
			BatchSize:     128,
			LR:            0.01,
			NumProcs:      1,
			SampleWorkers: 1,
			TrainWorkers:  1,
			Seed:          3,
		}
	})
	run("shard_exact", 2, func(b *testing.B) Config {
		ds, err := datasets.Resolve("arxiv-sim@x16", 7)
		if err != nil {
			b.Fatal(err)
		}
		ds.TrainIdx = ds.TrainIdx[:2048]
		_, paths, err := graph.WriteShardSet(ds, b.TempDir(), "bench", graph.ShardOptions{K: 4, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		ss, err := graph.OpenShardSet(paths[0])
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ss.Close() })
		skel, err := ss.Skeleton()
		if err != nil {
			b.Fatal(err)
		}
		const numProcs = 2
		return Config{
			Dataset:       skel,
			Sampler:       sampler.NewNeighbor(skel.Graph, []int{10, 5}),
			Model:         nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{skel.Spec.ScaledF0, skel.Spec.ScaledHidden, skel.NumClasses}, Seed: 3},
			BatchSize:     128,
			LR:            0.01,
			NumProcs:      numProcs,
			SampleWorkers: 1,
			TrainWorkers:  1,
			Seed:          3,
			Sources:       shardSources(b, ss, numProcs),
		}
	})
}

// BenchmarkLocalEpoch measures a partition-local epoch: arxiv-sim in 4
// shards on 2 replicas, i.e. the partition-bounded sampling, the gather
// from the set's feature table and the step.
func BenchmarkLocalEpoch(b *testing.B) {
	ds, err := datasets.Resolve("arxiv-sim", 7)
	if err != nil {
		b.Fatal(err)
	}
	ss := storedShardSet(b, ds, graph.ShardOptions{K: 4, Seed: 7})
	skel, err := ss.Skeleton()
	if err != nil {
		b.Fatal(err)
	}
	const numProcs = 2
	fanouts := []int{10, 5}
	setup, err := NewPartitionSetup(ss, skel, numProcs, fanouts)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(Config{
		Dataset:        skel,
		Sampler:        sampler.NewNeighbor(skel.Graph, fanouts),
		Model:          nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{skel.Spec.ScaledF0, skel.Spec.ScaledHidden, skel.NumClasses}, Seed: 3},
		BatchSize:      128,
		LR:             0.01,
		NumProcs:       numProcs,
		SampleWorkers:  1,
		TrainWorkers:   1,
		Seed:           3,
		Sources:        shardSources(b, ss, numProcs),
		SamplingRegime: RegimeLocal,
		LocalSamplers:  setup.Samplers,
		LocalTargets:   setup.Targets,
	})
	if err != nil {
		b.Fatal(err)
	}
	const warm = 2 // grow the slabs and pools
	for ep := 0; ep < warm; ep++ {
		if _, err := e.RunEpoch(ep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunEpoch(warm + i); err != nil {
			b.Fatal(err)
		}
	}
}
