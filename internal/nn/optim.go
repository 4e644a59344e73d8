package nn

import (
	"math"

	"argo/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba). Replicas that see identical
// gradient sequences take bit-identical steps, which the multi-process
// engine's consistency guarantee builds on.
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

// Clone returns a deep copy of the optimizer, step count and moment
// estimates included — what a re-launch carries beside the weights.
func (a *Adam) Clone() *Adam {
	c := *a
	c.m, c.v = nil, nil // stay nil before the first step: Step allocates on nil
	for i := range a.m {
		c.m, c.v = append(c.m, a.m[i].Clone()), append(c.v, a.v[i].Clone())
	}
	return &c
}

// Steps returns how many updates the optimizer has applied.
func (a *Adam) Steps() int { return a.step }

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

// SGD is plain stochastic gradient descent, used by tests that need the
// simplest possible update rule.
type SGD struct{ LR float64 }

// Step applies one SGD update.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		tensor.AddScaled(p.W, float32(-s.LR), p.Grad)
	}
}

// Optimizer is satisfied by Adam and SGD.
type Optimizer interface {
	Step(params []*Param)
}
