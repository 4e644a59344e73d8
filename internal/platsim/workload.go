package platsim

import (
	"fmt"
	"math"

	"argo/internal/graph"
	"argo/internal/platform"
)

// Scenario fixes everything about a simulated training run except the
// ARGO configuration: the machine, the library, the sampler-model pair,
// and the dataset (full-scale Table III statistics).
type Scenario struct {
	Platform  platform.Spec
	Library   Profile
	Sampler   SamplerKind
	Model     ModelKind
	Dataset   graph.DatasetSpec
	BatchSize int // global batch size B; 0 selects the sampler default
}

// Default global batch sizes, chosen like the libraries' example scripts:
// neighbor sampling streams large batches; ShaDow uses smaller ones since
// each target contributes a whole subgraph.
const (
	DefaultNeighborBatch = 1024
	DefaultShadowBatch   = 256
)

// The paper's sampler settings (§VI-A2).
var (
	neighborFanouts = []int{15, 10, 5} // targets-first
	shadowFanouts   = []int{10, 5}
	shadowLayers    = 3
)

// collisionPoolFrac scales the shared-neighbour collision pool: sampled
// neighbours of a batch collide as if drawn from a pool of
// collisionPoolFrac·V candidates. Smaller pools mean more reuse inside
// big batches — the Fig. 5/6 workload-inflation mechanism.
const collisionPoolFrac = 0.30

// batch returns the effective global batch size. ShaDow defaults to the
// small batch because every target contributes a whole subgraph.
func (sc Scenario) batch() int {
	if sc.BatchSize > 0 {
		return sc.BatchSize
	}
	if sc.Sampler != Neighbor {
		return DefaultShadowBatch
	}
	return DefaultNeighborBatch
}

// TrainTargets returns the number of training targets per epoch.
func (sc Scenario) TrainTargets() int {
	return int(float64(sc.Dataset.Paper.Vertices) * sc.Dataset.TrainFrac)
}

// IterationsPerEpoch returns the number of synchronous iterations in one
// epoch (identical for every process count: the global batch is split).
func (sc Scenario) IterationsPerEpoch() int {
	n := sc.TrainTargets()
	b := sc.batch()
	return (n + b - 1) / b
}

// String names the scenario for tables and logs.
func (sc Scenario) String() string {
	return fmt.Sprintf("%s/%s-%s/%s/%s", sc.Library.Name, sc.Sampler, sc.Model, sc.Dataset.Name, sc.Platform.Name)
}

// IterWork is the per-process, per-iteration resource demand of one
// configuration. Core quantities are single-core seconds; byte quantities
// are DRAM traffic in bytes.
type IterWork struct {
	SampleCore  float64
	SampleBytes float64
	GatherBytes float64
	AggCore     float64
	AggBytes    float64
	DenseCore   float64
	DenseBytes  float64
	BackCore    float64
	BackBytes   float64

	SampledEdges float64 // per-process sampled edges (Fig. 6 workload)
	InputNodes   float64
}

// effFanout is the expected number of sampled neighbours per node:
// min(fanout, degree) smoothed over the degree distribution.
func effFanout(fanout int, avgDeg float64) float64 {
	f := float64(fanout)
	return f * (1 - math.Exp(-avgDeg/f))
}

// dedup estimates how many of m degree-proportional draws from a
// collision pool of size p are distinct (birthday saturation).
func dedup(m, p float64) float64 {
	if p <= 0 {
		return m
	}
	return m / (1 + m/p)
}

// PerProcessWork computes the per-iteration demand of one process when n
// processes share the global batch (per-process share b = B/n). All the
// effects discussed in paper §V-A1 fall out of the dedup model: smaller
// shares collide less, so the *total* sampled workload across processes
// grows with n.
func (sc Scenario) PerProcessWork(n int) IterWork {
	if n < 1 {
		n = 1
	}
	d := sc.Dataset.Paper
	avgDeg := 2 * float64(d.Edges) / float64(d.Vertices)
	pool := collisionPoolFrac * float64(d.Vertices)
	b := float64(sc.batch()) / float64(n)
	if b < 1 {
		b = 1
	}
	f0, f1, f2 := float64(d.F0), float64(d.F1), float64(d.F2)
	lib := sc.Library

	var w IterWork
	concat := 1.0
	if sc.Model == SAGE {
		concat = 2 // GraphSAGE concatenates self ∥ neighbour features
	}

	switch sc.Sampler {
	case Neighbor:
		// Frontier recursion, targets outward.
		frontier := b
		frontiers := []float64{b}
		var layerEdges []float64
		for _, fan := range neighborFanouts {
			m := frontier * effFanout(fan, avgDeg)
			layerEdges = append(layerEdges, m)
			frontier += dedup(m, pool)
			frontiers = append(frontiers, frontier)
		}
		w.InputNodes = frontier
		for _, e := range layerEdges {
			w.SampledEdges += e
		}
		w.SampleCore = w.SampledEdges * lib.SampleEdgeCost
		w.SampleBytes = w.SampledEdges * lib.SampleBytesPerEdge
		w.GatherBytes = w.InputNodes * f0 * 4

		// Forward order: layer 0 consumes raw features over the deepest
		// block. dims[l] → dims[l+1]; dst of layer l is frontiers[L-1-l].
		dims := []float64{f0, f1, f1, f2}
		for l := 0; l < 3; l++ {
			edges := layerEdges[2-l] // deepest block first
			dst := frontiers[2-l]    // block's destination count
			fin, fout := dims[l], dims[l+1]
			w.AggBytes += edges * fin * 4
			w.AggCore += edges * fin / (lib.AggGFPerCore * 1e9)
			w.DenseCore += dst * concat * fin * fout * 2 / (lib.DenseGFPerCore * 1e9)
			w.DenseBytes += dst * (concat*fin + fout) * 4
		}

	case Shadow:
		raw := b
		perTarget := 1.0
		growth := 1.0
		for _, fan := range shadowFanouts {
			growth *= effFanout(fan, avgDeg)
			perTarget += growth
		}
		raw = b * perTarget
		nodes := dedup(raw, pool)
		// Induced edges: each node keeps the neighbours that landed in
		// the localized set; locality keeps this well below avgDeg.
		induced := nodes * math.Min(avgDeg*0.35, nodes)
		w.InputNodes = nodes
		w.SampledEdges = induced * float64(shadowLayers)
		// ShaDow pays both expansion and the expensive induction scan.
		w.SampleCore = raw*lib.SampleEdgeCost + nodes*avgDeg*lib.ShadowEdgeCost
		w.SampleBytes = nodes * avgDeg * lib.SampleBytesPerEdge
		w.GatherBytes = nodes * f0 * 4
		// Every layer aggregates over the same induced edge set and
		// applies its dense transform to every subgraph node.
		dims := []float64{f0, f1, f1, f2}
		for l := 0; l < shadowLayers; l++ {
			fin, fout := dims[l], dims[l+1]
			w.AggBytes += induced * fin * 4
			w.AggCore += induced * fin / (lib.AggGFPerCore * 1e9)
			w.DenseCore += nodes * concat * fin * fout * 2 / (lib.DenseGFPerCore * 1e9)
			w.DenseBytes += nodes * (concat*fin + fout) * 4
		}

	default:
		panic(fmt.Sprintf("platsim: unknown sampler %q", sc.Sampler))
	}

	// Backward: re-touches the aggregation traffic (scatter instead of
	// gather) and costs roughly twice the forward dense work.
	w.BackCore = 2 * w.DenseCore
	w.BackBytes = 2*w.AggBytes + w.GatherBytes*0.5
	// Cache-miss / page-granularity amplification on irregular feature
	// traffic.
	amp := lib.MemAmplification
	if amp <= 0 {
		amp = 1
	}
	w.GatherBytes *= amp
	w.AggBytes *= amp
	w.BackBytes *= amp
	return w
}

// SyncSeconds models one synchronous-SGD gradient exchange across n
// processes: base latency plus a per-process term plus the model payload.
func (sc Scenario) SyncSeconds(n int) float64 {
	if n <= 1 {
		return 0
	}
	d := sc.Dataset.Paper
	f0, f1, f2 := float64(d.F0), float64(d.F1), float64(d.F2)
	concat := 1.0
	if sc.Model == SAGE {
		concat = 2
	}
	params := concat*f0*f1 + f1 + concat*f1*f1 + f1 + concat*f1*f2 + f2
	payload := params * 4 * 2 * float64(n-1) / float64(n) // ring all-reduce bytes
	const syncBW = 10e9                                   // shared-memory copy bandwidth
	lib := sc.Library
	return lib.SyncBase + lib.SyncPerProc*float64(n) + payload/syncBW
}
