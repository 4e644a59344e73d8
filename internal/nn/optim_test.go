package nn

import (
	"math"
	"math/rand"
	"testing"
)

// quadratic loss f(w) = Σ w², gradient 2w.
func quadGrad(p *Param) {
	for k, w := range p.W.Data {
		p.Grad.Data[k] = 2 * w
	}
}

func TestAdamMinimisesQuadratic(t *testing.T) {
	p := NewParam("w", 1, 4)
	copy(p.W.Data, []float32{1, -2, 3, -0.5})
	opt := NewAdam(0.1)
	for i := 0; i < 300; i++ {
		quadGrad(p)
		opt.Step([]*Param{p})
	}
	for k, w := range p.W.Data {
		if math.Abs(float64(w)) > 1e-2 {
			t.Fatalf("w[%d] = %v did not converge to 0", k, w)
		}
	}
}

func TestSGDMinimisesQuadratic(t *testing.T) {
	p := NewParam("w", 1, 2)
	copy(p.W.Data, []float32{4, -4})
	opt := &SGD{LR: 0.1}
	for i := 0; i < 100; i++ {
		quadGrad(p)
		opt.Step([]*Param{p})
	}
	for _, w := range p.W.Data {
		if math.Abs(float64(w)) > 1e-3 {
			t.Fatalf("SGD did not converge: %v", p.W.Data)
		}
	}
}

// Two Adam instances fed identical gradient sequences must take
// bit-identical steps (the multi-process replica-consistency foundation).
func TestAdamDeterministicAcrossReplicas(t *testing.T) {
	mk := func() (*Param, *Adam) {
		p := NewParam("w", 2, 3)
		copy(p.W.Data, []float32{1, 2, 3, 4, 5, 6})
		return p, NewAdam(0.01)
	}
	p1, o1 := mk()
	p2, o2 := mk()
	grads := []float32{0.5, -0.1, 0.3, 0.9, -0.7, 0.2}
	for step := 0; step < 50; step++ {
		for k := range grads {
			g := grads[k] * float32(step%3+1)
			p1.Grad.Data[k] = g
			p2.Grad.Data[k] = g
		}
		o1.Step([]*Param{p1})
		o2.Step([]*Param{p2})
	}
	if p1.W.MaxAbsDiff(p2.W) != 0 {
		t.Fatal("identical gradient streams produced different weights")
	}
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	// After one step with gradient g, Adam moves by ≈ lr·sign(g).
	p := NewParam("w", 1, 1)
	p.Grad.Data[0] = 0.3
	opt := NewAdam(0.1)
	opt.Step([]*Param{p})
	if math.Abs(float64(p.W.Data[0])+0.1) > 1e-3 {
		t.Fatalf("first Adam step = %v, want ≈ -lr", p.W.Data[0])
	}
}

func TestAdamParamCountChangePanics(t *testing.T) {
	p := NewParam("w", 1, 1)
	opt := NewAdam(0.1)
	opt.Step([]*Param{p})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when param count changes")
		}
	}()
	opt.Step([]*Param{p, NewParam("x", 1, 1)})
}

func TestOptimizersImplementInterface(t *testing.T) {
	var _ Optimizer = NewAdam(0.1)
	var _ Optimizer = &SGD{LR: 0.1}
	// XavierUniform stays within its bound.
	p := NewParam("w", 10, 10)
	XavierUniform(rand.New(rand.NewSource(11)), p)
	bound := float32(math.Sqrt(6.0 / 20))
	for _, v := range p.W.Data {
		if v > bound || v < -bound {
			t.Fatalf("Xavier value %v outside ±%v", v, bound)
		}
	}
}

// SGD is plain stochastic gradient descent, used by tests that need the
// simplest possible update rule.
type SGD struct{ LR float64 }

// Step applies one SGD update.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		for k, g := range p.Grad.Data {
			p.W.Data[k] -= float32(s.LR) * g
		}
	}
}

// Optimizer is satisfied by Adam and SGD.
type Optimizer interface {
	Step(params []*Param)
}
