package serve

import (
	"fmt"
	"math/rand"

	"argo/internal/graph"
)

// Generator yields one query node per call. Implementations are seeded
// and deterministic; they are NOT safe for concurrent use — give each
// load-generating worker its own (differently seeded) generator.
type Generator interface {
	Next() graph.NodeID
}

type zipfGen struct {
	z *rand.Zipf
}

// NewZipfGenerator returns a Zipf(s)-skewed query stream: node v is
// drawn with probability ∝ 1/(v+1)^s, so a small popular set absorbs
// most of the traffic. Popularity is assigned by node id — arbitrary
// but fixed, and deliberately independent of graph structure: it models
// user-facing query skew (some entities are simply asked about more),
// which is the locality the hot-node feature cache converts into hits.
// s must be > 1.
func NewZipfGenerator(g *graph.CSR, seed int64, s float64) (Generator, error) {
	if s <= 1 {
		return nil, fmt.Errorf("serve: zipf skew must be > 1, got %g", s)
	}
	if g.NumNodes == 0 {
		return nil, fmt.Errorf("serve: empty graph")
	}
	rng := rand.New(rand.NewSource(seed))
	return &zipfGen{z: rand.NewZipf(rng, s, 1, uint64(g.NumNodes-1))}, nil
}

func (z *zipfGen) Next() graph.NodeID { return graph.NodeID(z.z.Uint64()) }

type uniformGen struct {
	rng *rand.Rand
	n   int
}

// NewUniformGenerator returns an unskewed query stream — the baseline
// the cache hit-rate comparison is made against.
func NewUniformGenerator(numNodes int, seed int64) (Generator, error) {
	if numNodes == 0 {
		return nil, fmt.Errorf("serve: empty graph")
	}
	return &uniformGen{rng: rand.New(rand.NewSource(seed)), n: numNodes}, nil
}

func (u *uniformGen) Next() graph.NodeID { return graph.NodeID(u.rng.Intn(u.n)) }

// NextBatch draws size distinct nodes from gen (predict requests carry
// unique node lists). Requires size <= the graph's node count.
func NextBatch(gen Generator, size int) []graph.NodeID {
	out := make([]graph.NodeID, 0, size)
	seen := make(map[graph.NodeID]struct{}, size)
	for len(out) < size {
		v := gen.Next()
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
