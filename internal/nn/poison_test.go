package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"argo/internal/graph"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

// poisonPool puts copies of NaN-filled rows×w matrices into bufs for every
// width w, so each Get or GetDirty of those widths that fits in rows
// hands back NaN storage unless it is zeroed or overwritten.
func poisonPool(bufs *tensor.BufPool, rows, copies int, widths []int) {
	for _, w := range widths {
		for c := 0; c < copies; c++ {
			m := tensor.New(rows, w)
			m.Fill(float32(math.NaN()))
			bufs.Put(m)
		}
	}
}

// TestPoisonedPoolKeepsEveryBit guards every GetDirty in a training
// step: with the model's buffer pool full of NaN matrices of every width
// the step draws, gather → Forward → loss → Backward, and the next
// batch's Forward and Infer, give the bits a model with a clean pool
// gives.
func TestPoisonedPoolKeepsEveryBit(t *testing.T) {
	// A collection would empty the pool of its poison.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g, labels, err := graph.Generate(graph.GenSpec{NumNodes: 300, NumEdges: 2400, NumClasses: 4, Homophily: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	feats := randFeatures(g.NumNodes, 8, 5)
	for i := range feats.Data {
		feats.Data[i] *= 0.1 // keeps GIN's sums finite
	}
	dims := []int{8, 16, 12, 4}
	var widths []int
	for _, d := range dims {
		widths = append(widths, d, 2*d)
	}
	batch := func(shadow bool, seed int64) *sampler.MiniBatch {
		rng := rand.New(rand.NewSource(seed))
		targets := make([]graph.NodeID, 24)
		for i := range targets {
			targets[i] = graph.NodeID(rng.Intn(g.NumNodes))
		}
		if shadow {
			return sampler.NewShaDow(g, []int{5, 3}, 3).Sample(rng, targets)
		}
		return sampler.NewNeighbor(g, []int{5, 4, 3}).Sample(rng, targets)
	}
	for _, kind := range []ModelKind{KindSAGE, KindGCN, KindGIN} {
		for _, shadow := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/shadow=%v", kind, shadow), func(t *testing.T) {
				first, next := batch(shadow, 1), batch(shadow, 2)
				type result struct {
					loss          float64
					grads         []*tensor.Matrix
					logits, infer *tensor.Matrix
				}
				run := func(poisoned bool) result {
					m, err := NewModel(ModelSpec{Kind: kind, Dims: dims, Seed: 9}, Degrees(g))
					if err != nil {
						t.Fatal(err)
					}
					pool, bufs := tensor.NewPool(2), m.Buffers()
					if poisoned {
						poisonPool(bufs, len(first.InputNodes())+len(next.InputNodes()), 12, widths)
					}
					x0 := GatherPooled(bufs, feats, first.InputNodes())
					logits := m.Forward(pool, first, x0)
					batchLabels := make([]int32, logits.Rows)
					for i, v := range first.Targets {
						batchLabels[i] = labels[v]
					}
					var r result
					var dLogits *tensor.Matrix
					r.loss, dLogits = SoftmaxCrossEntropyPooled(bufs, logits, batchLabels)
					m.Backward(pool, dLogits)
					bufs.Put(dLogits)
					bufs.Put(x0)
					for _, p := range m.Params() {
						r.grads = append(r.grads, p.Grad.Clone())
					}
					r.logits = m.Forward(pool, next, GatherPooled(bufs, feats, next.InputNodes())).Clone()
					r.infer = m.Infer(pool, next, GatherPooled(bufs, feats, next.InputNodes())).Clone()
					return r
				}
				clean, dirty := run(false), run(true)
				if math.IsNaN(clean.loss) || math.IsInf(clean.loss, 0) {
					t.Fatalf("clean loss %v: the comparison needs a finite run", clean.loss)
				}
				if math.Float64bits(dirty.loss) != math.Float64bits(clean.loss) {
					t.Fatalf("loss %v with a poisoned pool, %v with a clean one", dirty.loss, clean.loss)
				}
				for i, g := range clean.grads {
					if !bitsEqual(dirty.grads[i], g) {
						t.Fatalf("gradient %d differs with a poisoned pool", i)
					}
				}
				if !bitsEqual(dirty.logits, clean.logits) || !bitsEqual(dirty.infer, clean.infer) {
					t.Fatal("next batch's logits differ with a poisoned pool")
				}
			})
		}
	}
}
