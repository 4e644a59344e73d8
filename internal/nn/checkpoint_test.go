package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func checkpointModel(t *testing.T, seed int64) *GNN {
	t.Helper()
	m, err := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{6, 8, 3}, Seed: seed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func checkpointBlob(t *testing.T, m *GNN) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointRoundTrip(t *testing.T) {
	src := checkpointModel(t, 1)
	// Perturb so we are not just round-tripping the seed.
	rng := rand.New(rand.NewSource(2))
	for _, p := range src.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += float32(rng.NormFloat64())
		}
	}
	blob := checkpointBlob(t, src)
	dst := checkpointModel(t, 99) // different init
	if WeightsEqual(src, dst) {
		t.Fatal("models should differ before restore")
	}
	if err := dst.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if !WeightsEqual(src, dst) {
		t.Fatal("restore did not reproduce the weights")
	}
}

func TestCheckpointRejectsArchMismatch(t *testing.T) {
	src := checkpointModel(t, 1)
	blob := checkpointBlob(t, src)
	gcn, err := NewModel(ModelSpec{Kind: KindGCN, Dims: []int{6, 8, 3}, Seed: 1}, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := gcn.LoadCheckpoint(bytes.NewReader(blob)); err == nil {
		t.Fatal("kind mismatch must be rejected")
	}
	wide, err := NewModel(ModelSpec{Kind: KindSAGE, Dims: []int{6, 16, 3}, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.LoadCheckpoint(bytes.NewReader(blob)); err == nil {
		t.Fatal("dim mismatch must be rejected")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	m := checkpointModel(t, 1)
	if err := m.LoadCheckpoint(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestWeightsEqual(t *testing.T) {
	a := checkpointModel(t, 5)
	b := checkpointModel(t, 5)
	if !WeightsEqual(a, b) {
		t.Fatal("same-seed models must be equal")
	}
	b.Params()[0].W.Data[0] += 1
	if WeightsEqual(a, b) {
		t.Fatal("perturbed models must differ")
	}
}

// The producer/consumer contract of the serving path: argo-train writes
// a checkpoint file, argo-serve reconstructs the model from it alone.
func TestCheckpointFileRoundTrip(t *testing.T) {
	src := checkpointModel(t, 1)
	rng := rand.New(rand.NewSource(3))
	for _, p := range src.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += float32(rng.NormFloat64())
		}
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := src.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	// Explicit-arch load into a fresh replica.
	dst := checkpointModel(t, 42)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadCheckpoint(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !WeightsEqual(src, dst) {
		t.Fatal("save -> load did not reproduce the weights")
	}
	// Self-describing load: architecture reconstructed from the file.
	auto, err := LoadModelFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Spec.Kind != src.Spec.Kind || len(auto.Spec.Dims) != len(src.Spec.Dims) {
		t.Fatalf("reconstructed spec %v, want %v", auto.Spec, src.Spec)
	}
	if !WeightsEqual(src, auto) {
		t.Fatal("LoadModelFile did not reproduce the weights")
	}
	// Atomicity: no temp siblings left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir has %d entries, want 1", len(entries))
	}
}

func TestLoadModelGCNNeedsDegrees(t *testing.T) {
	gcn, err := NewModel(ModelSpec{Kind: KindGCN, Dims: []int{4, 5, 2}, Seed: 1}, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	blob := checkpointBlob(t, gcn)
	if _, err := LoadModel(bytes.NewReader(blob), nil); err == nil {
		t.Fatal("GCN checkpoint without degrees must be rejected")
	}
	back, err := LoadModel(bytes.NewReader(blob), []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !WeightsEqual(gcn, back) {
		t.Fatal("GCN LoadModel did not reproduce the weights")
	}
}

// LoadCheckpoint restores parameters previously written by SaveCheckpoint
// into the model. The architecture (kind and dims) must match.
func (m *GNN) LoadCheckpoint(r io.Reader) error {
	var st checkpointState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("nn: decode checkpoint: %w", err)
	}
	return m.applyCheckpoint(st)
}

// WeightsEqual reports whether two models have bit-identical parameters.
func WeightsEqual(a, b *GNN) bool {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i].W.Rows != pb[i].W.Rows || pa[i].W.Cols != pb[i].W.Cols {
			return false
		}
		if pa[i].W.MaxAbsDiff(pb[i].W) != 0 {
			return false
		}
	}
	return true
}
