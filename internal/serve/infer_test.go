package serve

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
)

// serveFixture builds the tiny dataset, writes it to a store file, and
// trains nothing — a seeded model is enough for bit-match testing.
func serveFixture(t *testing.T) (*graph.Dataset, *nn.GNN, string) {
	t.Helper()
	ds, err := datasets.Build("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.NewModel(nn.ModelSpec{
		Kind: nn.KindSAGE,
		Dims: []int{ds.Features.Cols, 8, 8, ds.NumClasses},
		Seed: 7,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	return ds, m, path
}

func logitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// The acceptance pin: a prediction served through the full stack (lazy
// row reads, hot-node cache, any batch composition, any worker count)
// must bit-match a direct single-batch forward pass on the materialised
// dataset.
func TestServedPredictionBitMatchesDirect(t *testing.T) {
	ds, m, path := serveFixture(t)
	lz, err := graph.OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Close()
	g, err := lz.Topology()
	if err != nil {
		t.Fatal(err)
	}
	cache, err := newRowCache(PolicyLRU, 1<<16, lz.FeatureDim(), graph.DtypeF32)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := newInferencer(m, g, NewLazyFeatureSource(lz), cache, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []graph.NodeID{0, 17, 42, 99, 119}
	direct, err := DirectPredict(m, ds, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Whole batch at once.
	served, err := inf.Predict(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		if served[i].Label != direct[i].Label || !logitsEqual(served[i].Logits, direct[i].Logits) {
			t.Fatalf("node %d: served %v != direct %v", nodes[i], served[i], direct[i])
		}
	}
	// One node at a time, cache now warm: still bit-identical.
	for i, v := range nodes {
		solo, err := inf.Predict([]graph.NodeID{v})
		if err != nil {
			t.Fatal(err)
		}
		if !logitsEqual(solo[0].Logits, direct[i].Logits) {
			t.Fatalf("node %d: solo prediction diverges from direct", v)
		}
	}
	if s := inf.CacheStats(); s.Hits == 0 {
		t.Fatal("warm repeat queries should have hit the cache")
	}
}

// The sharded path must serve the same bits as the single-store path.
func TestShardedServingBitMatchesDirect(t *testing.T) {
	ds, m, _ := serveFixture(t)
	dir := t.TempDir()
	_, paths, err := graph.WriteShardSet(ds, dir, "tiny", graph.ShardOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := graph.OpenShardSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	skel, err := ss.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	g := skel.Graph
	feats, err := NewShardFeatureSource(ss)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := newInferencer(m, g, feats, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []graph.NodeID{3, 60, 118}
	direct, err := DirectPredict(m, ds, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	served, err := inf.Predict(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		if !logitsEqual(served[i].Logits, direct[i].Logits) {
			t.Fatalf("node %d: sharded serving diverges from direct", nodes[i])
		}
	}
}

func TestNewInferencerRejectsDimMismatch(t *testing.T) {
	ds, _, _ := serveFixture(t)
	wrong, err := nn.NewModel(nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Features.Cols + 1, 4, ds.NumClasses}, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newInferencer(wrong, ds.Graph, NewMatrixFeatureSource(ds.Features), nil, 1); err == nil {
		t.Fatal("feature-dim mismatch must be rejected")
	}
}

// Ids outside the graph are refused by the inferencer itself, so the
// paths that skip the batcher (DirectPredict, argo-serve -direct) get
// ErrBadRequest instead of an index panic in the gather.
func TestPredictRejectsOutOfRangeNodes(t *testing.T) {
	ds, m, _ := serveFixture(t)
	for _, nodes := range [][]graph.NodeID{{0, 999}, {-1}, {graph.NodeID(ds.Graph.NumNodes)}} {
		if _, err := DirectPredict(m, ds, nodes, 1); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("DirectPredict(%v): %v, want ErrBadRequest", nodes, err)
		}
	}
	if _, err := DirectPredict(m, ds, []graph.NodeID{graph.NodeID(ds.Graph.NumNodes - 1)}, 1); err != nil {
		t.Fatalf("last valid node refused: %v", err)
	}
}
