// Package ddp provides the inter-replica communication layer of the
// ARGO Multi-Process Engine — the role PyTorch DistributedDataParallel
// plays in the paper, extended with the sharded-training exchange the
// HyScale-GNN direction needs.
//
// Three facilities live here:
//
//   - Gradient synchronisation. Replicas compute parameter gradients
//     over their share of the global mini-batch; AllReduceMeanWeighted
//     averages them (weighted by share size, so the result equals the
//     gradient of the mean loss over the *global* batch) and writes the
//     consensus back into every replica. Input features are frozen, so
//     parameter gradients are the only ones that cross replicas.
//
//   - The halo exchange. In a sharded run every global node is owned by
//     exactly one replica; HaloExchange routes feature-row and label
//     lookups to owners in *batched* messages — at most one message per
//     (peer, call), routed by a dense node → replica table and served by
//     one RowServer call per message — and counts the traffic per
//     directed replica pair.
//
//   - The transport seam. Transport carries the batched messages:
//     InprocTransport is a direct function call for replicas sharing an
//     address space; TCPTransport frames the identical messages over
//     loopback sockets, proving the protocol works across address
//     spaces. Both are selected by name through NewTransport, and both
//     carry training bit-exactly (the engine's parity tests pin batched
//     == per-row losses).
package ddp

import (
	"fmt"

	"argo/internal/nn"
)

// AllReduceMeanWeighted averages gradients across replicas in place.
// paramSets[r] is replica r's parameter list; all replicas must have the
// same architecture (same parameter count and shapes, in the same order).
// weights[r] is the number of examples replica r's gradient averaged over
// (its mini-batch share); a zero weight means the replica sat out this
// iteration. After the call every replica holds identical gradients.
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
		// Weighted sum in float64 for a deterministic, replica-order-
		// independent reduction, then broadcast.
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
		for r := 1; r < n; r++ {
			copy(paramSets[r][p].Grad.Data, ref.Data)
		}
	}
	return nil
}

// AllReduceMean is AllReduceMeanWeighted with equal weights.
func AllReduceMean(paramSets [][]*nn.Param) error {
	w := make([]float64, len(paramSets))
	for i := range w {
		w[i] = 1
	}
	return AllReduceMeanWeighted(paramSets, w)
}

// MaxWeightDivergence returns the largest absolute elementwise difference
// between any replica's weights and replica 0's. The multi-process engine
// asserts this stays 0: identical init + identical averaged gradients +
// identical optimizer steps keep replicas bit-equal.
func MaxWeightDivergence(paramSets [][]*nn.Param) float64 {
	var max float64
	for r := 1; r < len(paramSets); r++ {
		for p := range paramSets[0] {
			if d := paramSets[0][p].W.MaxAbsDiff(paramSets[r][p].W); d > max {
				max = d
			}
		}
	}
	return max
}
