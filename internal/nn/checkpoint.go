package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"argo/internal/platform"
)

// checkpointState is the serialised form of a model's parameters.
type checkpointState struct {
	Kind   ModelKind
	Dims   []int
	Names  []string
	Shapes [][2]int
	Data   [][]float32
}

// SaveCheckpoint writes the model's parameters to w in a self-describing
// binary format (gob). Training jobs use this to persist weights across
// process boundaries: argo-serve loads what argo-train saves.
func (m *GNN) SaveCheckpoint(w io.Writer) error {
	st := checkpointState{Kind: m.Spec.Kind, Dims: m.Spec.Dims}
	for _, p := range m.Params() {
		st.Names = append(st.Names, p.Name)
		st.Shapes = append(st.Shapes, [2]int{p.W.Rows, p.W.Cols})
		data := make([]float32, len(p.W.Data))
		copy(data, p.W.Data)
		st.Data = append(st.Data, data)
	}
	return gob.NewEncoder(w).Encode(st)
}

func (m *GNN) applyCheckpoint(st checkpointState) error {
	if st.Kind != m.Spec.Kind {
		return fmt.Errorf("nn: checkpoint is a %s model, this is %s", st.Kind, m.Spec.Kind)
	}
	if len(st.Dims) != len(m.Spec.Dims) {
		return fmt.Errorf("nn: checkpoint has %d dims, model has %d", len(st.Dims), len(m.Spec.Dims))
	}
	for i, d := range st.Dims {
		if m.Spec.Dims[i] != d {
			return fmt.Errorf("nn: checkpoint dim %d is %d, model has %d", i, d, m.Spec.Dims[i])
		}
	}
	params := m.Params()
	if len(st.Data) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d tensors, model has %d", len(st.Data), len(params))
	}
	for i, p := range params {
		if st.Shapes[i] != [2]int{p.W.Rows, p.W.Cols} {
			return fmt.Errorf("nn: checkpoint tensor %d shape %v, want %dx%d", i, st.Shapes[i], p.W.Rows, p.W.Cols)
		}
		if len(st.Data[i]) != len(p.W.Data) {
			return fmt.Errorf("nn: checkpoint tensor %d has %d values", i, len(st.Data[i]))
		}
		copy(p.W.Data, st.Data[i])
	}
	return nil
}

// LoadModel reads a checkpoint and constructs the model it describes —
// the consumer side of SaveCheckpoint for processes (like the inference
// server) that don't know the architecture up front. degrees is required
// when the checkpoint holds a GCN model and ignored otherwise.
func LoadModel(r io.Reader, degrees []int) (*GNN, error) {
	var st checkpointState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("nn: decode checkpoint: %w", err)
	}
	m, err := NewModel(ModelSpec{Kind: st.Kind, Dims: st.Dims}, degrees)
	if err != nil {
		return nil, err
	}
	if err := m.applyCheckpoint(st); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveCheckpointFile writes the model's checkpoint to path atomically
// (temporary sibling + rename, like .argograph saves), so a reader never
// observes a half-written checkpoint.
func (m *GNN) SaveCheckpointFile(path string) error {
	return platform.WriteFileAtomic(path, m.SaveCheckpoint)
}

// LoadModelFile is LoadModel over a checkpoint file.
func LoadModelFile(path string, degrees []int) (*GNN, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := LoadModel(f, degrees)
	if err != nil {
		return nil, fmt.Errorf("nn: %s: %w", path, err)
	}
	return m, nil
}
