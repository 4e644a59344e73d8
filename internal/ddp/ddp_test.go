package ddp

import (
	"math"
	"math/rand"
	"testing"

	"argo/internal/nn"
)

func replicas(t *testing.T, n int) [][]*nn.Param {
	t.Helper()
	sets := make([][]*nn.Param, n)
	for r := range sets {
		m, err := nn.NewModel(nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{4, 6, 3}, Seed: 7}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sets[r] = m.Params()
	}
	return sets
}

func TestAllReduceMeanAverages(t *testing.T) {
	sets := replicas(t, 3)
	for r := range sets {
		for _, p := range sets[r] {
			p.Grad.Fill(float32(r + 1)) // grads 1, 2, 3 → mean 2
		}
	}
	if err := AllReduceMeanWeighted(sets, []float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	for r := range sets {
		for _, p := range sets[r] {
			for _, v := range p.Grad.Data {
				if v != 2 {
					t.Fatalf("replica %d grad %v, want 2", r, v)
				}
			}
		}
	}
}

func TestAllReduceWeighted(t *testing.T) {
	sets := replicas(t, 2)
	for _, p := range sets[0] {
		p.Grad.Fill(1)
	}
	for _, p := range sets[1] {
		p.Grad.Fill(4)
	}
	// Weights 3 and 1: mean = (3·1 + 1·4)/4 = 1.75.
	if err := AllReduceMeanWeighted(sets, []float64{3, 1}); err != nil {
		t.Fatal(err)
	}
	for _, p := range sets[1] {
		for _, v := range p.Grad.Data {
			if math.Abs(float64(v)-1.75) > 1e-6 {
				t.Fatalf("weighted mean = %v, want 1.75", v)
			}
		}
	}
}

func TestAllReduceZeroWeightReplicaSitsOut(t *testing.T) {
	sets := replicas(t, 2)
	for _, p := range sets[0] {
		p.Grad.Fill(5)
	}
	for _, p := range sets[1] {
		p.Grad.Fill(999) // must be ignored
	}
	if err := AllReduceMeanWeighted(sets, []float64{2, 0}); err != nil {
		t.Fatal(err)
	}
	for r := range sets {
		for _, p := range sets[r] {
			for _, v := range p.Grad.Data {
				if v != 5 {
					t.Fatalf("replica %d got %v, want 5", r, v)
				}
			}
		}
	}
}

func TestAllReduceErrors(t *testing.T) {
	if err := AllReduceMeanWeighted(nil, nil); err == nil {
		t.Fatal("expected error for no replicas")
	}
	sets := replicas(t, 2)
	if err := AllReduceMeanWeighted(sets, []float64{1}); err == nil {
		t.Fatal("expected weight-count error")
	}
	if err := AllReduceMeanWeighted(sets, []float64{1, -1}); err == nil {
		t.Fatal("expected negative-weight error")
	}
	if err := AllReduceMeanWeighted(sets, []float64{0, 0}); err == nil {
		t.Fatal("expected all-zero-weight error")
	}
	short := [][]*nn.Param{sets[0], sets[1][:1]}
	if err := AllReduceMeanWeighted(short, []float64{1, 1}); err == nil {
		t.Fatal("expected param-count error")
	}
}

// The replica-consistency property: same init, synced grads, same
// optimizer → weights stay bit-identical across steps.
func TestReplicasStayConsistent(t *testing.T) {
	sets := replicas(t, 4)
	opts := make([]*nn.Adam, 4)
	for r := range opts {
		opts[r] = nn.NewAdam(0.01)
	}
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 20; step++ {
		for r := range sets {
			for _, p := range sets[r] {
				for k := range p.Grad.Data {
					p.Grad.Data[k] = float32(rng.NormFloat64()) // divergent raw grads
				}
			}
		}
		if err := AllReduceMeanWeighted(sets, []float64{1, 1, 1, 1}); err != nil {
			t.Fatal(err)
		}
		for r := range sets {
			opts[r].Step(sets[r])
		}
		if d := MaxWeightDivergence(sets); d != 0 {
			t.Fatalf("step %d: replicas diverged by %v", step, d)
		}
	}
}

func TestMaxWeightDivergenceDetects(t *testing.T) {
	sets := replicas(t, 2)
	if MaxWeightDivergence(sets) != 0 {
		t.Fatal("fresh replicas must be identical")
	}
	sets[1][0].W.Data[0] += 0.5
	if d := MaxWeightDivergence(sets); math.Abs(d-0.5) > 1e-6 {
		t.Fatalf("divergence = %v, want 0.5", d)
	}
}
