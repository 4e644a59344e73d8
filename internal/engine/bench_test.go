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
// epoch that tensor's BenchmarkRowMulAdd kernel pays for.
func BenchmarkEpoch(b *testing.B) {
	run := func(name string, config func(b *testing.B) Config) {
		b.Run(name, func(b *testing.B) {
			e, err := New(config(b))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunEpoch(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{1, 2, 4} {
		run(map[int]string{1: "1proc", 2: "2proc", 4: "4proc"}[n], func(b *testing.B) Config {
			return testConfig(b, testDataset(b), n)
		})
	}
	run("train_single", func(b *testing.B) Config {
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
}

// BenchmarkLocalEpoch measures a partition-local epoch with a warm halo
// cache: arxiv-sim in 4 shards on 2 replicas over the in-process
// transport, i.e. the sampling, cached gather, step, and the per-epoch
// gradient flush and drain.
func BenchmarkLocalEpoch(b *testing.B) {
	ds, err := datasets.Resolve("arxiv-sim", 7)
	if err != nil {
		b.Fatal(err)
	}
	ss, err := graph.ShardSetFromDataset(ds, graph.ShardOptions{K: 4, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	defer ss.Close()
	skel, err := ss.Skeleton()
	if err != nil {
		b.Fatal(err)
	}
	const numProcs = 2
	fanouts := []int{10, 5}
	sources, ex, err := NewShardSources(ss, numProcs)
	if err != nil {
		b.Fatal(err)
	}
	defer ex.Close()
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
		Sources:        sources,
		SamplingRegime: RegimeLocal,
		LocalSamplers:  setup.Samplers,
		LocalTargets:   setup.Targets,
	})
	if err != nil {
		b.Fatal(err)
	}
	const warm = 2 // fill the feature cache and grow the slabs and pools
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
