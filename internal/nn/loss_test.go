package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"argo/internal/tensor"
)

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	logits := tensor.New(2, 4) // all-zero logits → uniform distribution
	loss, grad := SoftmaxCrossEntropy(logits, []int32{0, 3})
	want := math.Log(4)
	if math.Abs(loss-want) > 1e-6 {
		t.Fatalf("loss = %v, want ln(4) = %v", loss, want)
	}
	// grad = (0.25 - onehot)/2.
	if math.Abs(float64(grad.At(0, 0))-(0.25-1)/2) > 1e-6 {
		t.Fatalf("grad[0,0] = %v", grad.At(0, 0))
	}
	if math.Abs(float64(grad.At(0, 1))-0.25/2) > 1e-6 {
		t.Fatalf("grad[0,1] = %v", grad.At(0, 1))
	}
}

func TestSoftmaxCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.FromSlice(1, 3, []float32{100, 0, 0})
	loss, _ := SoftmaxCrossEntropy(logits, []int32{0})
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	lossWrong, _ := SoftmaxCrossEntropy(logits, []int32{1})
	if lossWrong < 10 {
		t.Fatalf("confident wrong prediction should have large loss, got %v", lossWrong)
	}
}

// Property: every gradient row sums to zero (softmax-CE identity).
func TestQuickCrossEntropyGradRowsSumZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(6), 2+rng.Intn(6)
		logits := tensor.New(rows, cols)
		for i := range logits.Data {
			logits.Data[i] = float32(rng.NormFloat64() * 3)
		}
		labels := make([]int32, rows)
		for i := range labels {
			labels[i] = int32(rng.Intn(cols))
		}
		_, grad := SoftmaxCrossEntropy(logits, labels)
		for i := 0; i < rows; i++ {
			var sum float64
			for _, v := range grad.Row(i) {
				sum += float64(v)
			}
			if math.Abs(sum) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Finite-difference check of the loss gradient itself.
func TestCrossEntropyGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := tensor.New(3, 4)
	for i := range logits.Data {
		logits.Data[i] = float32(rng.NormFloat64())
	}
	labels := []int32{1, 0, 3}
	_, grad := SoftmaxCrossEntropy(logits.Clone(), labels)
	const eps = 1e-2
	for k := 0; k < len(logits.Data); k++ {
		lp := logits.Clone()
		lp.Data[k] += eps
		lossP, _ := SoftmaxCrossEntropy(lp, labels)
		lm := logits.Clone()
		lm.Data[k] -= eps
		lossM, _ := SoftmaxCrossEntropy(lm, labels)
		numeric := (lossP - lossM) / (2 * eps)
		if math.Abs(numeric-float64(grad.Data[k])) > 1e-3 {
			t.Fatalf("grad[%d]: numeric %v analytic %v", k, numeric, grad.Data[k])
		}
	}
}

func TestSoftmaxCrossEntropyLabelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SoftmaxCrossEntropy(tensor.New(2, 3), []int32{0})
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice(3, 2, []float32{
		2, 1, // pred 0
		0, 5, // pred 1
		3, 4, // pred 1
	})
	if acc := Accuracy(logits, []int32{0, 1, 0}); math.Abs(acc-2.0/3) > 1e-9 {
		t.Fatalf("Accuracy = %v", acc)
	}
	if Accuracy(tensor.New(0, 2), nil) != 0 {
		t.Fatal("empty accuracy must be 0")
	}
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// against integer labels and the gradient w.r.t. the logits
// (softmax(logits) − onehot(labels)) / batch.
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int32) (float64, *tensor.Matrix) {
	return SoftmaxCrossEntropyPooled(nil, logits, labels)
}
