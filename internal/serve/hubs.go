package serve

import (
	"fmt"

	"argo/internal/graph"
	"argo/internal/sampler"
)

// hubChunk bounds how many hub targets one precompute pass gathers, so
// precomputing a large hub set never materialises a frontier bigger
// than ~hubChunk times the average k-hop neighborhood.
const hubChunk = 128

// HubStore holds precomputed per-layer activations for a hub set —
// typically the top-degree nodes (graph.TopDegree), whose deep
// frontiers dominate gather cost on a power-law graph. acts[j] is one
// slab of every hub's activation after j model layers, a row per hub at
// the position row maps it to: acts[L] holds the hubs' logits (a hub
// target is answered outright, no gather at all), and acts[1..L-1] the
// values injected into interior layer inputs so a gather pruned at hubs
// (sampler.SamplePruned) stays bit-identical to the unpruned pass.
// acts[0] would be the raw feature rows and is not stored — the feature
// path already supplies them exactly.
//
// The store is immutable after construction, so reads need no locking.
// All methods are nil-receiver safe (a nil store knows no hubs).
type HubStore struct {
	row   map[graph.NodeID]int32
	acts  [][]float32
	nodes []graph.NodeID
	bytes int64
}

// Len returns the number of hub nodes.
func (h *HubStore) Len() int {
	if h == nil {
		return 0
	}
	return len(h.nodes)
}

// Layers returns the model depth the store was computed for.
func (h *HubStore) Layers() int {
	if h == nil {
		return 0
	}
	return len(h.acts) - 1
}

// Bytes returns the stored activation payload size.
func (h *HubStore) Bytes() int64 {
	if h == nil {
		return 0
	}
	return h.bytes
}

// Contains reports whether id is a hub — the pruning predicate handed
// to sampler.SamplePruned.
func (h *HubStore) Contains(id graph.NodeID) bool {
	if h == nil {
		return false
	}
	_, ok := h.row[id]
	return ok
}

// Activation returns id's stored activation entering layer `layer`
// (i.e. its output after `layer` layers), or false if id is not a hub
// or the layer is out of the stored range.
func (h *HubStore) Activation(layer int, id graph.NodeID) ([]float32, bool) {
	if h == nil || layer < 1 || layer >= len(h.acts) {
		return nil, false
	}
	r, ok := h.row[id]
	if !ok {
		return nil, false
	}
	w := len(h.acts[layer]) / len(h.nodes)
	lo, hi := int(r)*w, int(r+1)*w
	return h.acts[layer][lo:hi:hi], true
}

// Logits returns id's stored final-layer output, or false if id is not
// a hub.
func (h *HubStore) Logits(id graph.NodeID) ([]float32, bool) {
	return h.Activation(h.Layers(), id)
}

// HubStats is the /statz snapshot of the hub layer.
type HubStats struct {
	Nodes  int   `json:"nodes"`
	Layers int   `json:"layers"`
	Bytes  int64 `json:"bytes"`
	// Hits counts predictions answered from stored hub logits with no
	// gather at all.
	Hits int64 `json:"hits"`
}

// PrecomputeHubs computes and stores per-layer activations for the
// given hub nodes, then attaches the store to the inferencer: from the
// next Predict on, gathers are pruned at hubs and hub targets are
// answered from stored logits. The per-layer values come from prefix
// passes of the model itself — a j-block full-neighborhood gather fed
// through the first j layers (nn.GNN.InferReuse) — so every stored
// activation carries exactly the bits a direct inference would compute;
// the serving path stays bit-identical to DirectPredict. Feature rows
// stream through the same cache as live traffic, so precompute doubles
// as a cache warm-up for exactly the rows hub-adjacent queries re-fetch.
//
// Cost is one full gather per model layer over the hub set (chunked);
// it runs once at server start. An empty hub set detaches the store.
func (inf *Inferencer) PrecomputeHubs(hubs []graph.NodeID) (*HubStore, error) {
	inf.mu.Lock()
	defer inf.mu.Unlock()
	if len(hubs) == 0 {
		inf.hubs = nil
		return nil, nil
	}
	for _, v := range hubs {
		if v < 0 || int(v) >= inf.graph.NumNodes {
			return nil, fmt.Errorf("serve: hub node %d outside [0,%d)", v, inf.graph.NumNodes)
		}
	}
	L := inf.model.NumLayers()
	hs := &HubStore{
		row:   make(map[graph.NodeID]int32, len(hubs)),
		acts:  make([][]float32, L+1),
		nodes: append([]graph.NodeID(nil), hubs...),
	}
	for i, v := range hubs {
		hs.row[v] = int32(i)
	}
	bufs := inf.model.Buffers()
	for j := 1; j <= L; j++ {
		fn := sampler.NewFullNeighbor(inf.graph, j)
		for start := 0; start < len(hubs); start += hubChunk {
			chunk := hubs[start:min(start+hubChunk, len(hubs))]
			mb := fn.Sample(nil, chunk)
			x0, err := inf.gatherFeatures(mb.InputNodes())
			if err != nil {
				return nil, err
			}
			out := inf.model.InferReuse(inf.pool, mb, x0, nil)
			if hs.acts[j] == nil {
				hs.acts[j] = make([]float32, len(hubs)*out.Cols)
				hs.bytes += int64(len(hs.acts[j])) * 4
			}
			// The chunk's targets lead the output, one row each.
			copy(hs.acts[j][start*out.Cols:], out.Data[:len(chunk)*out.Cols])
			bufs.Put(out)
			bufs.Put(x0)
		}
	}
	inf.hubs = hs
	return hs, nil
}

// HubStats reports the hub layer counters (zero value when detached).
func (inf *Inferencer) HubStats() HubStats {
	hs := inf.hubs
	if hs == nil {
		return HubStats{}
	}
	return HubStats{
		Nodes:  hs.Len(),
		Layers: hs.Layers(),
		Bytes:  hs.Bytes(),
		Hits:   inf.hubHits.Load(),
	}
}
