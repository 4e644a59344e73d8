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
// batch layout × (n, s, t), recorded at the commit before the layers
// were rewritten over one aggregator and the samplers over one block
// builder. Every sampled block and every floating-point operation must
// keep its place for these to hold.
var pinnedLosses = map[string]string{
	"sage/neighbor/1": "0x1.0000bb7c7c1dbp+00 0x1.01194710f943p-01",
	"sage/neighbor/2": "0x1.e3b7f82141a8cp-01 0x1.0d35d894c3919p-01",
	"sage/shadow/1":   "0x1.ee0765783c30bp-01 0x1.0a521dce72b6cp-01",
	"sage/shadow/2":   "0x1.ed7a78428aeccp-01 0x1.0bd15840afd3ap-01",
	"gcn/neighbor/1":  "0x1.e7323535b9793p-01 0x1.9ef890c9d1bbfp-01",
	"gcn/neighbor/2":  "0x1.e0e2fa6a392dep-01 0x1.9e40c0ffe0219p-01",
	"gcn/shadow/1":    "0x1.dbdb1a566436cp-01 0x1.8aeabc799672fp-01",
	"gcn/shadow/2":    "0x1.e2d03d8ede364p-01 0x1.8dd28ceb98592p-01",
	"gin/neighbor/1":  "0x1.aaf2f3ddcb734p+02 0x1.3eb868eb126a2p+01",
	"gin/neighbor/2":  "0x1.8d30f63f6673ap+02 0x1.f15259781b984p+00",
	"gin/shadow/1":    "0x1.8699594725e35p+03 0x1.cbe2e364ea082p+02",
	"gin/shadow/2":    "0x1.7cc6ed615f503p+03 0x1.73d993fa0680dp+02",
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
