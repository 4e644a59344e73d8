package engine

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"argo/internal/datasets"
	"argo/internal/nn"
	"argo/internal/sampler"
)

// pinnedLosses holds the hex-float per-epoch mean loss of two epochs on
// tiny (batch 16, lr 0.01, seed 7, dims 16-8-3) for every model kind ×
// batch layout × (n, s, t), recorded when the sampler's per-entry
// reservoir draw became the keyed Floyd draw. Every sampled block and
// every floating-point operation must keep its place for these to hold.
var pinnedLosses = map[string]string{
	"sage/neighbor/1": "0x1.f316ca59770aap-01 0x1.2cb610c8b7f02p-01",
	"sage/neighbor/2": "0x1.08e0739eb6eafp+00 0x1.281f17a0dba7ap-01",
	"sage/shadow/1":   "0x1.f2cac9c51152fp-01 0x1.0d06eb9024a65p-01",
	"sage/shadow/2":   "0x1.ee66c3fd4e70bp-01 0x1.0a629fb9192edp-01",
	"gcn/neighbor/1":  "0x1.e2d0ab4b82204p-01 0x1.a45c11daca037p-01",
	"gcn/neighbor/2":  "0x1.e594280aecee2p-01 0x1.9c9e36ca8605p-01",
	"gcn/shadow/1":    "0x1.dd5b0e067dae7p-01 0x1.877a5097540bbp-01",
	"gcn/shadow/2":    "0x1.e3e1d861e0d93p-01 0x1.8d9a504eb3ac7p-01",
	"gin/neighbor/1":  "0x1.6692dfb435757p+02 0x1.00713b3ca9ba7p+01",
	"gin/neighbor/2":  "0x1.87418ce414bafp+02 0x1.f8c2dc68ec06cp+00",
	"gin/shadow/1":    "0x1.9292c4f5ff6b3p+03 0x1.a1ba5ff0b661cp+02",
	"gin/shadow/2":    "0x1.825469741c6a4p+03 0x1.669d6fc650e6fp+02",
}

func TestLossesMatchPinnedParent(t *testing.T) {
	ds, err := datasets.Resolve("tiny", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []nn.ModelKind{nn.KindSAGE, nn.KindGCN, nn.KindGIN} {
		for _, layout := range []string{"neighbor", "shadow"} {
			for _, nst := range []int{1, 2} {
				var smp sampler.Sampler = sampler.NewNeighbor(ds.Graph, []int{4, 4})
				if layout == "shadow" {
					smp = sampler.NewShaDow(ds.Graph, []int{4, 3}, 2)
				}
				e, err := New(Config{
					Dataset:       ds,
					Sampler:       smp,
					Model:         nn.ModelSpec{Kind: kind, Dims: []int{ds.Spec.ScaledF0, ds.Spec.ScaledHidden, ds.NumClasses}, Seed: 7},
					BatchSize:     16,
					LR:            0.01,
					NumProcs:      nst,
					SampleWorkers: nst,
					TrainWorkers:  nst,
					Seed:          7,
				})
				if err != nil {
					t.Fatal(err)
				}
				var losses []string
				for ep := 0; ep < 2; ep++ {
					res, err := e.RunEpoch(ep)
					if err != nil {
						t.Fatal(err)
					}
					losses = append(losses, strconv.FormatFloat(res.MeanLoss, 'x', -1, 64))
				}
				key := fmt.Sprintf("%s/%s/%d", kind, layout, nst)
				if got := strings.Join(losses, " "); got != pinnedLosses[key] {
					t.Errorf("%s: losses %s, want the parent's %s", key, got, pinnedLosses[key])
				}
			}
		}
	}
}
