// Package ddp provides the inter-replica communication layer of the
// ARGO Multi-Process Engine — the role PyTorch DistributedDataParallel
// plays in the paper.
//
// Replicas compute parameter gradients over their share of the global
// mini-batch; AllReduceMeanWeighted averages them (weighted by share
// size, so the result equals the gradient of the mean loss over the
// *global* batch) into replica 0's gradients, which the engine's one
// optimizer steps the shared weights with. Input features are frozen,
// and every replica reads the one feature table of the dataset (the
// repo benchmark's shard workloads load theirs with
// graph.ShardSet.Rows), so parameter gradients are all that replicas
// exchange — as in the paper's engine, whose processes share one node
// and one copy of the graph.
//
// The transports (InprocTransport, TCPTransport, selected by name
// through NewTransport) and their wire codec remain only as the repo
// benchmark's transport probe, which times one feature-request round
// trip on each. No training path sends a message through them.
package ddp

import (
	"fmt"

	"argo/internal/nn"
)

// AllReduceMeanWeighted averages gradients across replicas into
// paramSets[0]. paramSets[r] is replica r's parameter list; all replicas
// must have the same architecture (same parameter count and shapes, in
// the same order). weights[r] is the number of examples replica r's
// gradient averaged over (its mini-batch share); a zero weight means the
// replica sat out this iteration. After the call paramSets[0]'s
// gradients hold the consensus; the other replicas' are left as they
// were.
func AllReduceMeanWeighted(paramSets [][]*nn.Param, weights []float64) error {
	n := len(paramSets)
	if n == 0 {
		return fmt.Errorf("ddp: no replicas")
	}
	if len(weights) != n {
		return fmt.Errorf("ddp: %d weights for %d replicas", len(weights), n)
	}
	var totalW float64
	for _, w := range weights {
		if w < 0 {
			return fmt.Errorf("ddp: negative weight %v", w)
		}
		totalW += w
	}
	if totalW == 0 {
		return fmt.Errorf("ddp: all replica weights are zero")
	}
	numParams := len(paramSets[0])
	for r := 1; r < n; r++ {
		if len(paramSets[r]) != numParams {
			return fmt.Errorf("ddp: replica %d has %d params, want %d", r, len(paramSets[r]), numParams)
		}
	}
	for p := 0; p < numParams; p++ {
		ref := paramSets[0][p].Grad
		for r := 1; r < n; r++ {
			g := paramSets[r][p].Grad
			if g.Rows != ref.Rows || g.Cols != ref.Cols {
				return fmt.Errorf("ddp: replica %d param %d shape mismatch", r, p)
			}
		}
		// Weighted sum in float64, in replica order, for a deterministic
		// reduction.
		acc := make([]float64, len(ref.Data))
		for r := 0; r < n; r++ {
			w := weights[r]
			if w == 0 {
				continue
			}
			for k, v := range paramSets[r][p].Grad.Data {
				acc[k] += w * float64(v)
			}
		}
		inv := 1 / totalW
		for k := range acc {
			ref.Data[k] = float32(acc[k] * inv)
		}
	}
	return nil
}
