package main

import (
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/serve"
)

// A client that never finishes its request line must not hold a
// connection forever: the server closes it once readHeaderTimeout
// passes, while a complete request on the same listener is answered.
func TestStalledHeaderConnectionIsClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out readHeaderTimeout")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	}()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("complete request answered %q", body)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /hea"); err != nil {
		t.Fatal(err)
	}
	// ReadAll returns nil once the server hangs up (net/http may first
	// write an error status for the torn request line); the client-side
	// deadline only bounds the test if it never does.
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection still open after %s (read %q): %v", time.Since(start).Round(time.Millisecond), reply, err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout {
		t.Fatalf("connection closed after %s, before readHeaderTimeout %s", waited, readHeaderTimeout)
	}
}

// tinyFixture writes the tiny dataset and a seeded (untrained) SAGE
// checkpoint for it into a temp dir.
func tinyFixture(t *testing.T) (ds *graph.Dataset, model *nn.GNN, store, checkpoint string) {
	t.Helper()
	ds, err := datasets.Build("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	model, err = nn.NewModel(nn.ModelSpec{Kind: nn.KindSAGE, Dims: []int{ds.Features.Cols, 8, ds.NumClasses}, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, checkpoint = filepath.Join(dir, "tiny.argograph"), filepath.Join(dir, "m.ckpt")
	if err := ds.Save(store); err != nil {
		t.Fatal(err)
	}
	if err := model.SaveCheckpointFile(checkpoint); err != nil {
		t.Fatal(err)
	}
	return ds, model, store, checkpoint
}

// -direct with a node id the store does not have is a bad-request
// error, not an index-out-of-range panic in the gather.
func TestDirectRejectsOutOfRangeNodes(t *testing.T) {
	_, _, store, checkpoint := tinyFixture(t)
	for _, nodes := range []string{"0,999", "-1", "120"} {
		err := run(store, checkpoint, "", serveConfig{cachePolicy: serve.PolicyLRU}, 1, true, nodes)
		if !errors.Is(err, serve.ErrBadRequest) {
			t.Fatalf("-direct -nodes %s: %v, want ErrBadRequest", nodes, err)
		}
	}
}

// A shard store given to -store is refused with the typed error before
// a model is loaded or a server starts, with -direct too. The address
// cannot be listened on, so reaching the server would fail differently.
func TestShardStoreIsRefused(t *testing.T) {
	ds, _, _, checkpoint := tinyFixture(t)
	_, paths, err := graph.WriteShardSet(ds, t.TempDir(), "tiny", graph.ShardOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, direct := range []bool{false, true} {
		err := run(paths[0], checkpoint, "127.0.0.1:-1", serveConfig{cachePolicy: serve.PolicyLRU}, 1, direct, "0")
		if !errors.Is(err, datasets.ErrShardStore) {
			t.Fatalf("-store %s (direct %v): %v, want ErrShardStore", paths[0], direct, err)
		}
	}
}

// A bad -cache-policy or -precompute-hubs is reported before the store
// or the checkpoint is touched: neither file exists here.
func TestFlagsValidatedBeforeStoreIsOpened(t *testing.T) {
	for _, c := range []struct {
		want string
		cfg  serveConfig
	}{
		{"cache policy", serveConfig{cachePolicy: "twotier"}},
		{"-precompute-hubs", serveConfig{cachePolicy: serve.PolicyTinyLFU, precompute: 1.5}},
		{"-precompute-hubs", serveConfig{cachePolicy: serve.PolicyLRU, precompute: math.NaN()}},
		{"-batch-window", serveConfig{cachePolicy: serve.PolicyLRU, window: -time.Millisecond}},
		{"-batch-max", serveConfig{cachePolicy: serve.PolicyLRU, batchMax: -256}},
		{"-cache-bytes", serveConfig{cachePolicy: serve.PolicyLRU, cacheBytes: -1}},
	} {
		err := run("no-such.argograph", "no-such.ckpt", "", c.cfg, 1, false, "")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%+v: error %v, want one about the %s", c.cfg, err, c.want)
		}
	}
}

// When the listener cannot come up, listenAndServe returns the error
// with the server closed: its batcher refuses instead of leaving the
// collector goroutine running.
func TestListenErrorClosesServer(t *testing.T) {
	ds, model, _, _ := tinyFixture(t)
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	srv, err := serve.New(serve.Source{Graph: ds.Graph, Features: serve.NewMatrixFeatureSource(ds.Features)}, model)
	if err != nil {
		t.Fatal(err)
	}
	if err := listenAndServe(srv, busy.Addr().String()); err == nil {
		t.Fatal("listening on a taken address succeeded")
	}
	if _, err := srv.Batcher().Predict([]graph.NodeID{1}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Predict after a failed listen: %v, want ErrClosed", err)
	}
}
