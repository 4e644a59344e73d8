package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"argo/internal/graph"
)

// TestNewAssemblesStack: serve.New with the full option surface builds
// a working server whose /statz echoes the policy and hub layer, and
// whose predictions bit-match direct inference.
func TestNewAssemblesStack(t *testing.T) {
	ds, m, _ := serveFixture(t)
	srv, err := New(Source{Graph: ds.Graph, Features: NewMatrixFeatureSource(ds.Features)}, m,
		WithPolicy(PolicyTinyLFU),
		WithCacheBytes(1<<16),
		WithPrecomputeHubs(0.05),
		WithBatchWindow(time.Millisecond),
		WithBatchMaxNodes(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()

	nodes := []graph.NodeID{0, 17, 42, 99, 119}
	direct, err := DirectPredict(m, ds, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	served, err := srv.Batcher().Predict(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		if !logitsEqual(served[i].Logits, direct[i].Logits) {
			t.Fatalf("node %d: options-built server diverges from direct", nodes[i])
		}
	}

	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatzResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.CachePolicy != PolicyTinyLFU || st.Cache.Policy != PolicyTinyLFU {
		t.Fatalf("statz does not echo the policy: %+v", st)
	}
	if st.Hubs.Nodes == 0 || st.Hubs.Layers != m.NumLayers() || st.Hubs.Bytes <= 0 {
		t.Fatalf("statz hub layer missing: %+v", st.Hubs)
	}
	if st.Model != "sage" {
		t.Fatalf("model kind not derived from the spec: %q", st.Model)
	}
}

func TestNewValidates(t *testing.T) {
	ds, m, _ := serveFixture(t)
	src := Source{Graph: ds.Graph, Features: NewMatrixFeatureSource(ds.Features)}
	if _, err := New(src, nil); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := New(Source{}, m); err == nil {
		t.Fatal("empty source accepted")
	}
	if _, err := New(src, m, WithCacheBytes(1<<16), WithPolicy("clock")); err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, f := range []float64{1.5, -0.5, math.NaN()} {
		if _, err := New(src, m, WithPrecomputeHubs(f)); err == nil {
			t.Fatalf("hub fraction %v accepted", f)
		}
	}
	// No cache options at all: a server with caching disabled.
	srv, err := New(src, m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if s := srv.Inferencer().CacheStats(); s.CapBytes != 0 {
		t.Fatalf("cache built without a budget: %+v", s)
	}
	if _, err := srv.Batcher().Predict([]graph.NodeID{3}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPredictAndStatz races live Predict traffic against
// /statz polling across every policy — the synchronization fix for the
// cache counters; meaningful under -race.
func TestConcurrentPredictAndStatz(t *testing.T) {
	ds, m, _ := serveFixture(t)
	for _, policy := range Policies() {
		srv, err := New(Source{Graph: ds.Graph, Features: NewMatrixFeatureSource(ds.Features)}, m,
			WithPolicy(policy),
			WithCacheBytes(1<<14),
			WithPrecomputeHubs(0.05),
		)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					node := (seed*25 + i) % ds.Graph.NumNodes
					resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
						strings.NewReader(`{"nodes":[`+strconv.Itoa(node)+`]}`))
					if err == nil {
						resp.Body.Close()
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Get(ts.URL + "/statz")
				if err == nil {
					var st StatzResponse
					_ = json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
				}
			}
		}()
		wg.Wait()
		ts.Close()
		srv.Close()
	}
}

// TestServedBitsMatchDirectEverywhere is the parity pin over the whole
// option surface that survives: an fp32 and an fp16 store, each policy,
// with and without precomputed hubs, behind a cache that overflows and
// one that does not — every served logit equals DirectPredict's, cold
// and warm, and the fp16 store's cache is sized in fp16 slots.
func TestServedBitsMatchDirectEverywhere(t *testing.T) {
	nodes := []graph.NodeID{0, 17, 42, 99, 119}
	for _, dt := range []graph.FeatDtype{graph.DtypeF32, graph.DtypeF16} {
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
		defer lz.Close()
		g, err := lz.Topology()
		if err != nil {
			t.Fatal(err)
		}
		direct, err := DirectPredict(m, ds, nodes, 1)
		if err != nil {
			t.Fatal(err)
		}
		requireHandBits(t, direct, handGatherPredict(m, ds, nodes), fmt.Sprintf("%v DirectPredict", dt))
		slots := int64(1<<12) / (StoredRowBytes(lz.FeatureDim(), dt) + cacheEntryOverheadBytes)
		for _, policy := range Policies() {
			for _, hubs := range []float64{0, 0.25} {
				for _, budget := range []int64{1 << 12, 1 << 16} { // a scan overflows the first, fits the second
					srv, err := New(Source{Graph: g, Features: NewLazyFeatureSource(lz)}, m,
						WithPolicy(policy), WithCacheBytes(budget), WithPrecomputeHubs(hubs))
					if err != nil {
						t.Fatal(err)
					}
					for pass := 0; pass < 2; pass++ {
						served, err := srv.Batcher().Predict(nodes)
						if err != nil {
							t.Fatal(err)
						}
						for i := range nodes {
							if !logitsEqual(served[i].Logits, direct[i].Logits) {
								t.Fatalf("%v/%s/hubs=%g/%dB pass %d: node %d diverges from direct", dt, policy, hubs, budget, pass, nodes[i])
							}
						}
					}
					s := srv.Inferencer().CacheStats()
					srv.Close()
					if budget == 1<<12 && (int64(s.Entries) != slots || s.Evictions+s.Rejections == 0) {
						t.Fatalf("%v/%s/hubs=%g: small cache not full at %d slots: %+v", dt, policy, hubs, slots, s)
					}
					if budget == 1<<16 && (s.Hits == 0 || s.Evictions+s.Rejections != 0) {
						t.Fatalf("%v/%s/hubs=%g: large cache did not serve the warm pass: %+v", dt, policy, hubs, s)
					}
				}
			}
		}
	}
}
