// Command argo-serve answers node-classification queries over HTTP from
// a trained checkpoint and an .argograph store — the inference-side
// counterpart of argo-train. Queries are coalesced into micro-batches
// (one forward pass per batch; a lone query runs at once, and
// -batch-window bounds only the wait for queries already on their way)
// and feature rows are read row-granularly through a hot-node cache
// (-cache-policy: lru, the default, or tinylfu, which keeps the hot set
// through the scan every deep gather is), so a store much larger than
// RAM can be served directly off disk.
// -precompute-hubs computes top-degree nodes' per-layer activations at
// startup so their deep frontiers are never gathered. Neither changes a
// served logit: both are bit-identical to direct inference.
//
// Usage:
//
//	argo-train -dataset tiny -epochs 2 -save-checkpoint model.ckpt
//	argo-serve -store tiny.argograph -checkpoint model.ckpt -addr :8090 \
//	    -cache-policy tinylfu -precompute-hubs 0.01
//	curl -s localhost:8090/v1/predict -d '{"nodes":[0,1,2]}'
//
// Endpoints: POST /v1/predict ({"nodes":[...]} -> labels + logits),
// GET /healthz, GET /statz (cache, hub, batcher, and server counters;
// echoes the active cache policy).
//
// -direct bypasses the server entirely: it loads the full dataset, runs
// one reference forward pass for -nodes, and prints the same JSON
// a /v1/predict call returns. CI pins the served path against it —
// the two must match bit for bit, whatever policy and hub settings are
// in effect. A node id outside the store is an error, as it is a 400
// from the server.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("argo-serve: ")
	var (
		store       = flag.String("store", "", "dataset: registry name or .argograph path (required)")
		checkpoint  = flag.String("checkpoint", "", "checkpoint written by argo-train -save-checkpoint (required)")
		addr        = flag.String("addr", ":8090", "listen address")
		window      = flag.Duration("batch-window", 2*time.Millisecond, "longest a batch waits for queries already on their way; a lone query never waits (0 disables the wait)")
		batchMax    = flag.Int("batch-max", 256, "flush a batch at this many unique nodes (0 = no cap)")
		cacheBytes  = flag.Int64("cache-bytes", 4<<20, "hot-node feature cache budget in bytes (0 disables)")
		cachePolicy = flag.String("cache-policy", serve.PolicyLRU,
			"cache replacement policy: "+strings.Join(serve.Policies(), ", "))
		precompute = flag.Float64("precompute-hubs", 0, "precompute per-layer activations for the top fraction of nodes by degree (0..1; 0 disables)")
		seed       = flag.Int64("seed", 1, "generation seed when -store is a registry name")
		direct     = flag.Bool("direct", false, "no server: print the reference predictions for -nodes and exit")
		nodes      = flag.String("nodes", "", "comma-separated node ids for -direct")
	)
	flag.Parse()
	if *checkpoint == "" {
		log.Fatal("-checkpoint is required")
	}
	if *store == "" {
		log.Fatal("-store is required")
	}
	cfg := serveConfig{
		window:      *window,
		batchMax:    *batchMax,
		cacheBytes:  *cacheBytes,
		cachePolicy: *cachePolicy,
		precompute:  *precompute,
	}
	if err := run(*store, *checkpoint, *addr, cfg, *seed, *direct, *nodes); err != nil {
		log.Fatal(err)
	}
}

// Server-side connection deadlines. A predict request is a few hundred
// bytes, so a client that has not finished its headers in
// readHeaderTimeout, or its body in readTimeout, is stalled or hostile
// and would otherwise hold its connection (and goroutine) forever.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in an http.Server with the deadlines above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serveConfig carries the serving-stack flags into run.
type serveConfig struct {
	window      time.Duration
	batchMax    int
	cacheBytes  int64
	cachePolicy string
	precompute  float64
}

func run(store, checkpoint, addr string, cfg serveConfig, seed int64, direct bool, nodeList string) error {
	// Flag values first: a typo should not cost a store mapping, a
	// topology decode and a checkpoint load before it is reported.
	if _, err := serve.NewCache(cfg.cachePolicy, serve.CacheConfig{}); err != nil {
		return err
	}
	if !(cfg.precompute >= 0 && cfg.precompute <= 1) {
		return fmt.Errorf("-precompute-hubs %g outside [0,1]", cfg.precompute)
	}
	switch {
	case cfg.window < 0:
		return fmt.Errorf("-batch-window %v is negative", cfg.window)
	case cfg.batchMax < 0:
		return fmt.Errorf("-batch-max %d is negative", cfg.batchMax)
	case cfg.cacheBytes < 0:
		return fmt.Errorf("-cache-bytes %d is negative", cfg.cacheBytes)
	}
	// The store and its topology come before the model: the loader needs
	// the degree array for GCN checkpoints.
	lz, err := datasets.ResolveLazy(store, seed)
	if err != nil {
		return err
	}
	defer lz.Close()
	g, err := lz.Topology()
	if err != nil {
		return err
	}

	model, err := nn.LoadModelFile(checkpoint, nn.Degrees(g))
	if err != nil {
		return err
	}

	if direct {
		return printDirect(model, store, seed, nodeList)
	}

	srv, err := serve.New(serve.Source{Graph: g, Features: serve.NewLazyFeatureSource(lz)}, model,
		serve.WithPolicy(cfg.cachePolicy),
		serve.WithCacheBytes(cfg.cacheBytes),
		serve.WithPrecomputeHubs(cfg.precompute),
		serve.WithBatchWindow(cfg.window),
		serve.WithBatchMaxNodes(cfg.batchMax),
	)
	if err != nil {
		return err
	}
	log.Printf("serving %s (%s, %d nodes, %d classes) on %s with %s cache (%d bytes), %d precomputed hubs",
		lz.Spec().Name, model.Spec.Kind, g.NumNodes, srv.Inferencer().NumClasses(), addr, cfg.cachePolicy, cfg.cacheBytes, srv.Inferencer().HubStats().Nodes)
	return listenAndServe(srv, addr)
}

// listenAndServe answers HTTP on addr until SIGINT/SIGTERM, then drains:
// in-flight requests finish, the listener and the batcher shut down.
// srv is closed on every return, a listener that never came up
// included, so its collector goroutine does not outlive the call.
func listenAndServe(srv *serve.Server, addr string) error {
	defer srv.Close()
	httpSrv := newHTTPServer(addr, srv)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("%v: draining", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	log.Print("drained")
	return nil
}

// printDirect runs the reference single-batch forward pass on the fully
// materialised dataset and prints a PredictResponse — the bytes CI
// compares a served answer against.
func printDirect(model *nn.GNN, store string, seed int64, nodeList string) error {
	if nodeList == "" {
		return fmt.Errorf("-direct needs -nodes")
	}
	var targets []graph.NodeID
	for _, f := range strings.Split(nodeList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad -nodes entry %q: %w", f, err)
		}
		targets = append(targets, graph.NodeID(n))
	}
	ds, err := datasets.Resolve(store, seed)
	if err != nil {
		return err
	}
	preds, err := serve.DirectPredict(model, ds, targets, 1)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false)
	return enc.Encode(serve.PredictResponse{Predictions: preds})
}
