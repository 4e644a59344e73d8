package sampler

import (
	"math/rand"
	"sync"
	"testing"

	"argo/internal/graph"
)

// TestPooledIndexComesBackClean checks that the shared id → position
// slab leaves nothing behind: batches sampled back to back, and from
// four goroutines at once, equal the batches sampled on a fresh slab,
// and every slab left in the pool is all zeros.
func TestPooledIndexComesBackClean(t *testing.T) {
	g, _, err := graph.Generate(graph.GenSpec{NumNodes: 1500, NumEdges: 20000, NumClasses: 4, Homophily: 0.6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	half := make([]graph.NodeID, 0, g.NumNodes/2)
	for v := 0; v < g.NumNodes; v += 2 {
		half = append(half, graph.NodeID(v))
	}
	samplers := []Sampler{
		NewNeighbor(g, []int{10, 5}),
		NewPartition(g, []int{10, 5}, half),
		NewShaDow(g, []int{6, 3}, 2),
		NewFullNeighbor(g, 2),
	}
	targetSets := [][]graph.NodeID{half[:40], half[30:90], append(half[:20:20], half[:20]...)}
	sample := func(s Sampler, i int) string {
		return digestBatch(s.Sample(rand.New(rand.NewSource(int64(i))), targetSets[i]))
	}

	want := make([][]string, len(samplers))
	for si, s := range samplers {
		for i := range targetSets {
			indexPool = sync.Pool{} // a fresh slab for the reference
			want[si] = append(want[si], sample(s, i))
		}
	}

	for si, s := range samplers {
		for round := 0; round < 2; round++ {
			for i := range targetSets {
				if got := sample(s, i); got != want[si][i] {
					t.Errorf("%s, target set %d, back-to-back round %d: %s, fresh slab gave %s", s.Name(), i, round, got, want[si][i])
				}
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 4*len(samplers)*len(targetSets)*3)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3*len(samplers)*len(targetSets); k++ {
				si, i := (k+w)%len(samplers), (k/len(samplers)+w)%len(targetSets)
				if got := sample(samplers[si], i); got != want[si][i] {
					errs <- samplers[si].Name()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("%s: a batch sampled concurrently differs from the fresh-slab batch", name)
	}

	if x, _ := indexPool.Get().(*nodeIndex); x != nil {
		for v, j := range *x {
			if j != 0 {
				t.Fatalf("pooled slab holds %d at id %d", j, v)
			}
		}
	}
}
