package nn

import (
	"math"

	"argo/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba). The multi-process engine
// runs one for its shared parameter set, stepping it once per global
// iteration on the all-reduced gradient.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	step int
	m, v []*tensor.Matrix
}

// NewAdam returns an Adam optimizer with the usual defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to params from their accumulated gradients.
// State slots are allocated lazily on first use and keyed positionally,
// so the same parameter slice must be passed every step.
func (a *Adam) Step(params []*Param) {
	if a.m == nil {
		a.m = make([]*tensor.Matrix, len(params))
		a.v = make([]*tensor.Matrix, len(params))
		for i, p := range params {
			a.m[i] = tensor.New(p.W.Rows, p.W.Cols)
			a.v[i] = tensor.New(p.W.Rows, p.W.Cols)
		}
	}
	if len(a.m) != len(params) {
		panic("nn: Adam.Step param count changed")
	}
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range params {
		m, v := a.m[i], a.v[i]
		b1, b2 := float32(a.Beta1), float32(a.Beta2)
		for k, g := range p.Grad.Data {
			m.Data[k] = b1*m.Data[k] + (1-b1)*g
			v.Data[k] = b2*v.Data[k] + (1-b2)*g*g
			mHat := float64(m.Data[k]) / bc1
			vHat := float64(v.Data[k]) / bc2
			p.W.Data[k] -= float32(a.LR * mHat / (math.Sqrt(vHat) + a.Eps))
		}
	}
}
