package sampler

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"argo/internal/graph"
)

// digestTopology folds one batch topology — its leading count (NumDst
// of a block, NumTargets of a ShaDow subgraph), node ids, RowPtr and
// Col — into h, each slice preceded by its length.
func digestTopology(h hash.Hash64, n int, nodes []graph.NodeID, rowPtr, col []int32) {
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(int64(n))
	put(int64(len(nodes)))
	for _, v := range nodes {
		put(int64(v))
	}
	put(int64(len(rowPtr)))
	for _, v := range rowPtr {
		put(int64(v))
	}
	put(int64(len(col)))
	for _, v := range col {
		put(int64(v))
	}
}

// digestBatch is the FNV-64 digest of everything a sampler decides:
// every block (or the subgraph) and the Stats.
func digestBatch(mb *MiniBatch) string {
	h := fnv.New64a()
	for i := range mb.Blocks {
		b := &mb.Blocks[i]
		digestTopology(h, b.NumDst, b.SrcNodes, b.RowPtr, b.Col)
	}
	if s := mb.Sub; s != nil {
		digestTopology(h, s.NumTargets, s.SrcNodes, s.RowPtr, s.Col)
	}
	digestTopology(h, int(mb.Stats.InputNodes), nil, nil, nil)
	digestTopology(h, int(mb.Stats.SampledEdges), nil, nil, nil)
	for _, e := range mb.Stats.LayerEdges {
		digestTopology(h, int(e), nil, nil, nil)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBatchesMatchPinnedParent pins, to the bit, what every sampler
// produces for 64 targets (distinct, then with repeats) of a fixed
// power-law graph under a fixed seed. The full-neighbourhood digests
// date from before the four samplers moved onto one block builder; the
// neighbor, partition and shadow ones were re-recorded once, when the
// per-entry reservoir draw became the keyed Floyd draw.
func TestBatchesMatchPinnedParent(t *testing.T) {
	g, _, err := graph.Generate(graph.GenSpec{NumNodes: 2000, NumEdges: 30000, NumClasses: 4, Homophily: 0.6, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	distinct := someTargets(g, 64, rand.New(rand.NewSource(42)))
	repeated := append([]graph.NodeID(nil), distinct...)
	for i := 48; i < 64; i++ {
		repeated[i] = distinct[(i*7)%48]
	}
	half := make([]graph.NodeID, 0, g.NumNodes/2)
	for v := 0; v < g.NumNodes; v += 2 {
		half = append(half, graph.NodeID(v))
	}
	evenTargets := func(ts []graph.NodeID) []graph.NodeID {
		out := make([]graph.NodeID, len(ts))
		for i, v := range ts {
			out[i] = v &^ 1
		}
		return out
	}
	hubs := map[graph.NodeID]bool{}
	for _, v := range graph.TopDegree(g, 40) {
		hubs[v] = true
	}
	full := NewFullNeighbor(g, 2)
	samplers := []struct {
		name   string
		sample func(rng *rand.Rand, targets []graph.NodeID) *MiniBatch
		want   [2]string // distinct targets, repeated targets
	}{
		{"neighbor", NewNeighbor(g, []int{15, 10, 5}).Sample, [2]string{"4e09402f3f6e959d", "d24ea35947686d11"}},
		{"partition", func(rng *rand.Rand, ts []graph.NodeID) *MiniBatch {
			return NewPartition(g, []int{15, 10, 5}, half).Sample(rng, evenTargets(ts))
		}, [2]string{"fd39772ba5a58561", "1b3934642611510e"}},
		{"fullneighbor", full.Sample, [2]string{"789c08bbc9c18e69", "56c06cb626cf3d10"}},
		{"pruned", func(_ *rand.Rand, ts []graph.NodeID) *MiniBatch {
			return full.SamplePruned(ts, func(v graph.NodeID) bool { return hubs[v] })
		}, [2]string{"bcdd043e8f4f1f9e", "aecc4a7b31d2df60"}},
		{"shadow", NewShaDow(g, []int{10, 5}, 3).Sample, [2]string{"49cfeeb81ab5be5f", "21af9d85cfba3602"}},
	}
	for _, s := range samplers {
		for i, targets := range [][]graph.NodeID{distinct, repeated} {
			got := digestBatch(s.sample(rand.New(rand.NewSource(43)), targets))
			if got != s.want[i] {
				t.Errorf("%s, target set %d: digest %s, want the parent's %s", s.name, i, got, s.want[i])
			}
		}
	}
}
