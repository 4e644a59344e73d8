package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func serverFixture(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	ds, m, _ := serveFixture(t)
	srv, err := New(Source{Graph: ds.Graph, Features: NewMatrixFeatureSource(ds.Features)}, m, WithCacheBytes(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func TestServerPredictEndpoint(t *testing.T) {
	_, ts := serverFixture(t)
	body := `{"nodes":[0,5,119]}`
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Predictions) != 3 {
		t.Fatalf("%d predictions, want 3", len(pr.Predictions))
	}
	for i, want := range []int{0, 5, 119} {
		p := pr.Predictions[i]
		if int(p.Node) != want {
			t.Fatalf("prediction %d is for node %d, want %d", i, p.Node, want)
		}
		if p.Label < 0 || p.Label >= len(p.Logits) || len(p.Logits) == 0 {
			t.Fatalf("prediction %d malformed: %+v", i, p)
		}
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	_, ts := serverFixture(t)
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"garbage", "not json", http.StatusBadRequest},
		{"empty nodes", `{"nodes":[]}`, http.StatusBadRequest},
		{"out of range", `{"nodes":[100000]}`, http.StatusBadRequest},
		{"negative", `{"nodes":[-1]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.wantCode {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.wantCode)
		}
		if e["error"] == "" {
			t.Fatalf("%s: error body missing", c.name)
		}
	}
	// GET on a POST endpoint.
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: status %d", resp.StatusCode)
	}
}

func TestServerHealthAndStatz(t *testing.T) {
	_, ts := serverFixture(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(buf.String()) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, buf.String())
	}
	// Serve one query so the counters move.
	pr, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(`{"nodes":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	resp, err = http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatzResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Model != "sage" || st.NumNodes != 120 || st.NumClasses != 3 || st.Layers != 3 {
		t.Fatalf("statz shape wrong: %+v", st)
	}
	if st.Requests != 1 || st.Batcher.Requests != 1 || st.Batcher.Batches != 1 {
		t.Fatalf("statz counters wrong: %+v", st)
	}
	if st.Cache.Misses == 0 {
		t.Fatal("cache counters did not move")
	}
}

func TestServerDrainingReturns503(t *testing.T) {
	srv, ts := serverFixture(t)
	srv.Close()
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(`{"nodes":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server: status %d, want 503", resp.StatusCode)
	}
}
