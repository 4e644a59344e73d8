package nn

import (
	"math"

	"argo/internal/tensor"
)

// SoftmaxCrossEntropyPooled computes the mean cross-entropy loss of
// logits against integer labels and the gradient w.r.t. the logits
// (softmax(logits) − onehot(labels)) / batch, the gradient matrix drawn
// from bufs (nil → plain allocation), so a training step that recycles
// the gradient after Backward allocates nothing.
func SoftmaxCrossEntropyPooled(bufs *tensor.BufPool, logits *tensor.Matrix, labels []int32) (float64, *tensor.Matrix) {
	if len(labels) != logits.Rows {
		panic("nn: label count != logit rows")
	}
	probs := bufs.GetDirty(logits.Rows, logits.Cols)
	tensor.SoftmaxRows(probs, logits)
	var loss float64
	inv := 1 / float64(logits.Rows)
	for i, lbl := range labels {
		p := float64(probs.At(i, int(lbl)))
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	loss *= inv
	grad := probs
	for i, lbl := range labels {
		row := grad.Row(i)
		row[lbl] -= 1
		for k := range row {
			row[k] *= float32(inv)
		}
	}
	return loss, grad
}

// Accuracy returns the fraction of rows whose argmax equals the label.
func Accuracy(logits *tensor.Matrix, labels []int32) float64 {
	if logits.Rows == 0 {
		return 0
	}
	pred := make([]int, logits.Rows)
	tensor.ArgMaxRows(pred, logits)
	correct := 0
	for i, lbl := range labels {
		if int32(pred[i]) == lbl {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
