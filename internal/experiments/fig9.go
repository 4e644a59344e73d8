package experiments

import (
	"fmt"
	"io"

	"argo/internal/datasets"
	"argo/internal/engine"
	"argo/internal/nn"
	"argo/internal/sampler"
	"argo/internal/tablefmt"
)

// Fig9Curve is one convergence curve: validation accuracy sampled every
// few mini-batches.
type Fig9Curve struct {
	Label    string
	Batches  []int
	Accuracy []float64
}

// Fig9Data holds the semantics-preservation study (paper Fig. 9): the
// convergence curves of ARGO with 2/4/8 processes overlap the
// single-process baseline because the effective batch size is unchanged.
type Fig9Data struct {
	Curves []Fig9Curve
}

// fig9Epochs controls how long the real training runs; experiments use
// the full default, and fast unit tests may run a trimmed variant through
// fig9 directly.
const fig9Epochs = 12

// Fig9 trains the scaled ogbn-products instance for real — no simulation
// — with 1, 2, 4 and 8 processes and records accuracy against the number
// of executed global mini-batches.
func Fig9(w io.Writer) (Fig9Data, error) {
	return fig9(w, fig9Epochs)
}

func fig9(w io.Writer, epochs int) (Fig9Data, error) {
	var data Fig9Data
	ds, err := datasets.Build("ogbn-products", 3)
	if err != nil {
		return data, err
	}
	for _, n := range []int{1, 2, 4, 8} {
		label := fmt.Sprintf("ARGO:%d", n)
		if n == 1 {
			label = "DGL"
		}
		e, err := engine.New(engine.Config{
			Dataset:       ds,
			Sampler:       sampler.NewNeighbor(ds.Graph, []int{15, 10, 5}),
			Model:         nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Spec.ScaledF0, ds.Spec.ScaledHidden, ds.Spec.ScaledHidden, ds.NumClasses}, Seed: 21},
			BatchSize:     64,
			LR:            0.01,
			NumProcs:      n,
			SampleWorkers: 1,
			TrainWorkers:  1,
			Seed:          33,
		})
		if err != nil {
			return data, err
		}
		curve := Fig9Curve{Label: label}
		evalEvery := 4
		var evalErr error
		e.BatchHook = func(iter int) {
			if iter%evalEvery != 0 || evalErr != nil {
				return
			}
			acc, err := e.Evaluate(ds.ValIdx)
			if err != nil {
				evalErr = err
				return
			}
			curve.Batches = append(curve.Batches, iter)
			curve.Accuracy = append(curve.Accuracy, acc)
		}
		for ep := 0; ep < epochs; ep++ {
			if _, err := e.RunEpoch(ep); err != nil {
				return data, err
			}
			if evalErr != nil {
				return data, evalErr
			}
		}
		data.Curves = append(data.Curves, curve)
	}

	tb := tablefmt.New("Fig 9: accuracy vs batch count (Neighbor-SAGE, ogbn-products scaled, real training)",
		append([]string{"batches"}, curveLabels(data.Curves)...)...)
	if len(data.Curves) > 0 {
		for i, b := range data.Curves[0].Batches {
			row := []string{fmt.Sprint(b)}
			for _, c := range data.Curves {
				if i < len(c.Accuracy) {
					row = append(row, tablefmt.F(c.Accuracy[i]))
				} else {
					row = append(row, "")
				}
			}
			tb.Add(row...)
		}
	}
	_, err = io.WriteString(w, tb.String())
	return data, err
}

func curveLabels(curves []Fig9Curve) []string {
	out := make([]string, len(curves))
	for i, c := range curves {
		out[i] = c.Label
	}
	return out
}
