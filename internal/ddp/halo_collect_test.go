package ddp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"argo/internal/graph"
	"argo/internal/tensor"
)

// CollectGradients is pinned, bit for bit, to the reduction it was
// written as before the partial sums moved into slab tables: one
// map[node][]float32 per (owner, from) accumulated in the source's call
// order, drained ids ascending × contributors ascending. Scatters reach
// the exchange in a shuffled (owner, from) order, over two rounds, so
// both arrival order and table reuse after a drain are covered.
func TestCollectGradientsMatchesMapReference(t *testing.T) {
	const replicas, featDim, rounds = 3, 3, 2
	for _, name := range []string{"inproc", "tcp"} {
		t.Run(name, func(t *testing.T) {
			tr, err := NewTransport(name)
			if err != nil {
				t.Fatal(err)
			}
			ex := modExchange(t, replicas, tr)
			defer ex.Close()
			rng := rand.New(rand.NewSource(19))
			for round := 0; round < rounds; round++ {
				// ref[owner][from][node] is the reference partial sum.
				ref := make([][]map[graph.NodeID][]float32, replicas)
				for o := range ref {
					ref[o] = make([]map[graph.NodeID][]float32, replicas)
				}
				type pair struct{ owner, from int }
				var pairs []pair
				for o := 0; o < replicas; o++ {
					for from := 0; from < replicas; from++ {
						pairs = append(pairs, pair{o, from})
					}
				}
				rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
				for _, p := range pairs[:len(pairs)-1] { // one pair never contributes
					// Ids owned by p.owner, with repeats inside the call,
					// and values whose sum depends on the order of addition.
					ids := make([]graph.NodeID, 40)
					g := tensor.New(len(ids), featDim)
					for i := range ids {
						ids[i] = graph.NodeID(rng.Intn(25)*replicas + p.owner)
						for j := 0; j < featDim; j++ {
							g.Row(i)[j] = float32(math.Ldexp(rng.Float64()-0.5, rng.Intn(24)-12))
						}
					}
					if err := ex.ScatterGradients(p.from, ids, g); err != nil {
						t.Fatal(err)
					}
					buf := ref[p.owner][p.from]
					if buf == nil {
						buf = map[graph.NodeID][]float32{}
						ref[p.owner][p.from] = buf
					}
					for i, v := range ids {
						if buf[v] == nil {
							buf[v] = make([]float32, featDim)
						}
						for j, x := range g.Row(i) {
							buf[v][j] += x
						}
					}
				}
				for o := 0; o < replicas; o++ {
					seen := map[graph.NodeID]bool{}
					var wantIDs []graph.NodeID
					for _, buf := range ref[o] {
						for v := range buf {
							if !seen[v] {
								seen[v] = true
								wantIDs = append(wantIDs, v)
							}
						}
					}
					sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
					ids, got, err := ex.CollectGradients(o)
					if err != nil {
						t.Fatal(err)
					}
					if len(ids) != len(wantIDs) || got.Rows != len(ids) || got.Cols != featDim {
						t.Fatalf("round %d owner %d: %d ids in a %d×%d matrix, want %d ids", round, o, len(ids), got.Rows, got.Cols, len(wantIDs))
					}
					for i, v := range wantIDs {
						if ids[i] != v {
							t.Fatalf("round %d owner %d: id %d is %d, want %d", round, o, i, ids[i], v)
						}
						want := make([]float32, featDim)
						for from := range ref[o] {
							if partial := ref[o][from][v]; partial != nil {
								for j := range want {
									want[j] += partial[j]
								}
							}
						}
						for j := range want {
							if math.Float32bits(got.Row(i)[j]) != math.Float32bits(want[j]) {
								t.Fatalf("round %d owner %d node %d col %d: %x, want %x", round, o, v, j, got.Row(i)[j], want[j])
							}
						}
					}
				}
			}
		})
	}
}
