package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
		WithPolicy(PolicyTwoTier),
		WithCacheBytes(1<<16),
		WithHubPin(0.05),
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
	if st.CachePolicy != PolicyTwoTier || st.Cache.Policy != PolicyTwoTier {
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
	if _, err := New(src, m, WithPrecomputeHubs(1.5)); err == nil {
		t.Fatal("out-of-range hub fraction accepted")
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
			WithHubPin(0.05),
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
