package serve

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
	"argo/internal/tensor"
)

var errFlaky = errors.New("flaky source: read refused")

// TestFillMatchesPerRowCalls drives fill on one cache and the same
// request stream through Get and, on a miss, a read and a Put per row on
// a twin. Both policies, both storage dtypes, caches of 1–12 slots and
// requests of up to twice the slot count plus four rows: after every
// request the two caches must be equal in every field (counters,
// recency ring, index, slab, sketch), the rows read from the source must
// be the same ids in the same order, and every gathered row must hold
// that id's values. Every fifth request fails its k-th source read,
// which must leave both caches in the same state too.
func TestFillMatchesPerRowCalls(t *testing.T) {
	rowOf := func(id graph.NodeID, dim int) []float32 {
		r := make([]float32, dim)
		for i := range r {
			r[i] = float32(int(id)*8 + i) // small integers: fp16-exact
		}
		return r
	}
	for _, policy := range Policies() {
		for _, dt := range []graph.FeatDtype{graph.DtypeF32, graph.DtypeF16} {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				slots, dim := 1+rng.Intn(12), 1+rng.Intn(6)
				universe := 2*slots + 4 + rng.Intn(40)
				capBytes := int64(slots) * (StoredRowBytes(dim, dt) + cacheEntryOverheadBytes)
				filled, err := newRowCache(policy, capBytes, dim, dt)
				if err != nil {
					t.Fatal(err)
				}
				perRow, err := newRowCache(policy, capBytes, dim, dt)
				if err != nil {
					t.Fatal(err)
				}
				name := policy + "/" + dt.String()
				for req := 0; req < 300; req++ {
					ids := rng.Perm(universe)[:1+rng.Intn(2*slots+4)]
					nodes := make([]graph.NodeID, len(ids))
					for i, v := range ids {
						nodes[i] = graph.NodeID(v)
					}
					failAt := 0 // the failing miss, counting from 1; 0 never fails
					if req%5 == 4 {
						failAt = 1 + rng.Intn(len(nodes))
					}

					x := tensor.New(len(nodes), dim)
					var readA []graph.NodeID
					errA := filled.fill(nodes, x.Row, func(v graph.NodeID, dst []float32) error {
						readA = append(readA, v)
						if len(readA) == failAt {
							return errFlaky
						}
						copy(dst, rowOf(v, dim))
						return nil
					})

					var readB []graph.NodeID
					var errB error
					y := tensor.New(len(nodes), dim)
					for i, v := range nodes {
						if _, ok := perRow.Get(v, y.Row(i)); ok {
							continue
						}
						readB = append(readB, v)
						if len(readB) == failAt {
							errB = errFlaky
							break
						}
						copy(y.Row(i), rowOf(v, dim))
						perRow.Put(v, y.Row(i))
					}

					if !errors.Is(errA, errB) {
						t.Fatalf("%s seed %d request %d: fill returned %v, per-row calls %v", name, seed, req, errA, errB)
					}
					if !slices.Equal(readA, readB) {
						t.Fatalf("%s seed %d request %d: fill read %v, per-row calls read %v", name, seed, req, readA, readB)
					}
					if !reflect.DeepEqual(filled, perRow) {
						t.Fatalf("%s seed %d request %d: caches differ: fill %+v order %v, per-row %+v order %v",
							name, seed, req, filled.Stats(), filled.order(), perRow.Stats(), perRow.order())
					}
					if errA != nil {
						continue
					}
					for i, v := range nodes {
						if !logitsEqual(x.Row(i), rowOf(v, dim)) || !logitsEqual(x.Row(i), y.Row(i)) {
							t.Fatalf("%s seed %d request %d: row %d (node %d) = %v, want %v", name, seed, req, i, v, x.Row(i), rowOf(v, dim))
						}
					}
				}
				if s := filled.Stats(); s.Misses <= int64(slots) || s.Evictions+s.Rejections == 0 {
					t.Fatalf("%s seed %d: the stream never overflowed the cache: %+v", name, seed, s)
				}
			}
		}
	}
}

// flakySource wraps a FeatureSource. Armed with failAt > 0, its
// failAt-th Row call from then on fails, or with short set answers a row
// one value short; the calls after it succeed again.
type flakySource struct {
	FeatureSource
	calls, failAt int
	short         bool
}

func (s *flakySource) Row(id graph.NodeID, dst []float32) ([]float32, error) {
	s.calls++
	if s.failAt == 0 || s.calls != s.failAt {
		return s.FeatureSource.Row(id, dst)
	}
	if s.short {
		row, err := s.FeatureSource.Row(id, dst)
		return row[:len(row)-1], err
	}
	return nil, errFlaky
}

// arm makes the k-th Row call from now on misbehave.
func (s *flakySource) arm(k int, short bool) { s.calls, s.failAt, s.short = 0, k, short }

// ownRowSource answers from its matrix's own storage and never writes
// dst, which the gather must copy in.
type ownRowSource struct{ m *tensor.Matrix }

func (s ownRowSource) Row(id graph.NodeID, dst []float32) ([]float32, error) {
	return s.m.Row(int(id)), nil
}

func (s ownRowSource) Dim() int { return s.m.Cols }

// lazyStoreFixture writes the serve fixture as a store of the given
// dtype and opens it lazily. ds holds the dtype's values, so
// DirectPredict on it is the reference for the store.
func lazyStoreFixture(t *testing.T, dt graph.FeatDtype) (*graph.Dataset, *nn.GNN, *graph.LazyDataset, *graph.CSR) {
	t.Helper()
	ds, m, _ := serveFixture(t)
	if err := ds.ConvertFeatures(dt); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.argograph")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	lz, err := graph.OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lz.Close() })
	g, err := lz.Topology()
	if err != nil {
		t.Fatal(err)
	}
	return ds, m, lz, g
}

// poisonBuffers takes up to eight matrices of width cols out of the
// model's buffer pool, or new ones where it runs dry, fills each with
// NaN at 1024 rows and puts them all back, so a gather that leaves any
// element of its input matrix unwritten serves NaN.
func poisonBuffers(m *nn.GNN, cols int) {
	var held []*tensor.Matrix
	for k := 0; k < 8; k++ {
		p := m.Buffers().GetDirty(1024, cols)
		for i := range p.Data {
			p.Data[i] = float32(math.NaN())
		}
		held = append(held, p)
	}
	for _, p := range held {
		m.Buffers().Put(p)
	}
}

// handGatherPredict is DirectPredict's forward pass with the input
// matrix gathered by hand from the feature matrix: a reference that
// shares no code with the serving gather, so a fault in it that
// DirectPredict would share still shows.
func handGatherPredict(m *nn.GNN, ds *graph.Dataset, nodes []graph.NodeID) *tensor.Matrix {
	mb := sampler.NewFullNeighbor(ds.Graph, m.NumLayers()).Sample(nil, nodes)
	ids := mb.InputNodes()
	x0 := tensor.New(len(ids), ds.Features.Cols)
	for i, v := range ids {
		copy(x0.Row(i), ds.Features.Row(int(v)))
	}
	return m.Infer(tensor.NewPool(1), mb, x0)
}

// The input matrix comes from the pool without a zero fill, so every
// row must be written by the gather. With NaN-filled matrices of the
// feature width waiting in the pool before every request, served bits
// still equal DirectPredict's: on fp32 and fp16 lazy stores, with the
// cache off, overflowing and large, under both policies, with and
// without hubs, cold and warm — and through a source that answers from
// its own storage instead of writing dst.
func TestFillIntoPoisonedBuffersMatchesDirect(t *testing.T) {
	nodes := []graph.NodeID{0, 17, 42, 99, 119}
	for _, dt := range []graph.FeatDtype{graph.DtypeF32, graph.DtypeF16} {
		ds, m, lz, g := lazyStoreFixture(t, dt)
		direct, err := DirectPredict(m, ds, nodes, 1)
		if err != nil {
			t.Fatal(err)
		}
		hand := handGatherPredict(m, ds, nodes)
		for i := range nodes {
			if !logitsEqual(direct[i].Logits, hand.Row(i)) {
				t.Fatalf("%v: DirectPredict of node %d differs from a hand gather's pass", dt, nodes[i])
			}
		}
		sources := map[string]FeatureSource{"lazy": NewLazyFeatureSource(lz), "own-row": ownRowSource{ds.Features}}
		for srcName, feats := range sources {
			for _, policy := range Policies() {
				for _, hubs := range []float64{0, 0.25} {
					for _, budget := range []int64{0, 1 << 12, 1 << 16} {
						srv, err := New(Source{Graph: g, Features: feats}, m,
							WithPolicy(policy), WithCacheBytes(budget), WithPrecomputeHubs(hubs))
						if err != nil {
							t.Fatal(err)
						}
						for pass := 0; pass < 2; pass++ {
							poisonBuffers(m, lz.FeatureDim())
							served, err := srv.Batcher().Predict(nodes)
							if err != nil {
								t.Fatal(err)
							}
							for i := range nodes {
								if !logitsEqual(served[i].Logits, direct[i].Logits) {
									t.Fatalf("%v/%s/%s/hubs=%g/%dB pass %d: node %d serves %v, direct %v",
										dt, srcName, policy, hubs, budget, pass, nodes[i], served[i].Logits, direct[i].Logits)
								}
							}
						}
						srv.Close()
					}
				}
			}
		}
	}
}

// A source that fails a read, or answers a row one value short, fails
// the request; the cache keeps no row for it, and the next request
// still serves DirectPredict's bits, on both store dtypes.
func TestFillFailedReadKeepsServing(t *testing.T) {
	nodes := []graph.NodeID{0, 17, 42, 99, 119}
	for _, dt := range []graph.FeatDtype{graph.DtypeF32, graph.DtypeF16} {
		ds, m, lz, g := lazyStoreFixture(t, dt)
		direct, err := DirectPredict(m, ds, nodes, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, short := range []bool{false, true} {
			for _, policy := range Policies() {
				feats := &flakySource{FeatureSource: NewLazyFeatureSource(lz)}
				cache, err := newRowCache(policy, 1<<16, lz.FeatureDim(), graph.DtypeF32)
				if err != nil {
					t.Fatal(err)
				}
				inf, err := newInferencer(m, g, feats, cache, 1)
				if err != nil {
					t.Fatal(err)
				}
				feats.arm(3, short)
				_, err = inf.Predict(nodes)
				if err == nil || (!short && !errors.Is(err, errFlaky)) || (short && !strings.Contains(err.Error(), "values for node")) {
					t.Fatalf("%v/%s short=%v: a bad read served the request (err %v)", dt, policy, short, err)
				}
				before := cache.Stats()
				feats.arm(0, false)
				for pass := 0; pass < 2; pass++ {
					poisonBuffers(m, lz.FeatureDim())
					served, err := inf.Predict(nodes)
					if err != nil {
						t.Fatal(err)
					}
					for i := range nodes {
						if !logitsEqual(served[i].Logits, direct[i].Logits) {
							t.Fatalf("%v/%s short=%v pass %d: node %d diverges from direct after a failed read", dt, policy, short, pass, nodes[i])
						}
					}
				}
				if before.Entries != 2 || before.Misses != 3 || before.Hits != 0 {
					t.Fatalf("%v/%s short=%v: the failed request left %+v, want 2 rows cached and 3 misses", dt, policy, short, before)
				}
			}
		}
	}
}

// BenchmarkPredict times one four-node request through Inferencer.Predict
// on a lazily opened arxiv-sim@x16 store with a 4 MiB lru cache and a
// 2-layer SAGE model, after 100 warm-up requests: the repo benchmark's
// serve_zipf and serve_uniform without the batcher and HTTP. rows/op is
// the input rows each request gathers through the cache.
func BenchmarkPredict(b *testing.B) {
	ds, err := datasets.Resolve("arxiv-sim@x16", 1)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "x16.argograph")
	if err := ds.Save(path); err != nil {
		b.Fatal(err)
	}
	lz, err := graph.OpenLazy(path)
	if err != nil {
		b.Fatal(err)
	}
	defer lz.Close()
	g, err := lz.Topology()
	if err != nil {
		b.Fatal(err)
	}
	m, err := nn.NewModel(nn.ModelSpec{
		Kind: nn.KindSAGE,
		Dims: []int{ds.Features.Cols, ds.Spec.ScaledHidden, ds.NumClasses},
		Seed: 1,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, mix := range []string{"zipf", "uniform"} {
		b.Run(mix, func(b *testing.B) {
			gen, err := NewUniformGenerator(g.NumNodes, 1)
			if mix == "zipf" {
				gen, err = NewZipfGenerator(g, 1, 2.0)
			}
			if err != nil {
				b.Fatal(err)
			}
			srv, err := New(Source{Graph: g, Features: NewLazyFeatureSource(lz)}, m,
				WithPolicy(PolicyLRU), WithCacheBytes(4<<20))
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			inf := srv.Inferencer()
			reqs := make([][]graph.NodeID, 100+b.N)
			for i := range reqs {
				reqs[i] = NextBatch(gen, 4)
			}
			for _, r := range reqs[:100] {
				if _, err := inf.Predict(r); err != nil {
					b.Fatal(err)
				}
			}
			s0 := inf.CacheStats()
			b.ResetTimer()
			for _, r := range reqs[100:] {
				if _, err := inf.Predict(r); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s1 := inf.CacheStats()
			b.ReportMetric(float64(s1.Hits+s1.Misses-s0.Hits-s0.Misses)/float64(b.N), "rows/op")
		})
	}
}
