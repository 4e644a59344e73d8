package ddp

import (
	"math"
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
	for _, p := range sets[0] {
		for _, v := range p.Grad.Data {
			if v != 2 {
				t.Fatalf("replica 0 grad %v, want the mean 2", v)
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
	for _, p := range sets[0] {
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
	// The consensus lands in replica 0 only; the others keep their own.
	for r, want := range []float32{5, 999} {
		for _, p := range sets[r] {
			for _, v := range p.Grad.Data {
				if v != want {
					t.Fatalf("replica %d got %v, want %v", r, v, want)
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
