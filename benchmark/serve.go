package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"argo/internal/datasets"
	"argo/internal/graph"
	"argo/internal/nn"
	"argo/internal/sampler"
	"argo/internal/serve"
	"argo/internal/tensor"
)

// The serving stack runs with argo-serve's own defaults.
const (
	serveCacheBytes = 4 << 20
	serveWindow     = 2 * time.Millisecond
	serveBatchMax   = 256
	serveZipfS      = 2.0
	serveClients    = 2  // closed loop: each sends its next request when the last one returned
	serveReqNodes   = 4  // nodes per request
	serveCheckEvery = 50 // one response in this many is compared with direct inference
)

type serveSpec struct {
	dataset   string
	zipf      bool
	sliceReqs int // requests per measured slice, over all clients
	warmReqs  int
}

func (sp serveSpec) sized(quick bool) serveSpec {
	if quick {
		sp.dataset, sp.sliceReqs, sp.warmReqs = "tiny", 60, 20
	}
	return sp
}

// tracedFeatures times the store's row reads: the calls the cache
// could not answer.
type tracedFeatures struct {
	inner serve.FeatureSource
	t     *timer
}

func (s tracedFeatures) Row(id graph.NodeID, dst []float32) ([]float32, error) {
	start := time.Now()
	row, err := s.inner.Row(id, dst)
	s.t.nanos.Add(int64(time.Since(start)))
	s.t.calls.Add(1)
	return row, err
}
func (s tracedFeatures) Dim() int                   { return s.inner.Dim() }
func (s tracedFeatures) FeatDtype() graph.FeatDtype { return serve.FeatureSourceDtype(s.inner) }

// served is one running server with its load generators.
type served struct {
	srv     *serve.Server
	http    *httptest.Server
	clients []*client
}

// client is one closed-loop caller: a keep-alive connection and a
// seeded request stream of its own.
type client struct {
	http *http.Client
	gen  serve.Generator
	sent int
}

// checked is a response kept for the bit-for-bit check.
type checked struct {
	nodes []graph.NodeID
	body  []byte
}

type serveInstance struct {
	e     *env
	spec  serveSpec
	ds    *graph.Dataset
	lz    *graph.LazyDataset
	g     *graph.CSR
	model nn.ModelSpec

	live   *served
	rowT   timer   // decorated FeatureSource.Row (traced runs)
	shadow *served // server over the decorated source

	mu     sync.Mutex
	checks []checked
}

func setupServe(e *env, sp serveSpec) (instance, error) {
	sp = sp.sized(e.quick)
	si := &serveInstance{e: e, spec: sp}
	err := e.stage("datasets.build_s", func() error {
		ds, err := datasets.Resolve(sp.dataset, graphSeed)
		si.ds = ds
		return err
	})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.tmp, "serve.argograph")
	if err := e.stage("graph.store_write_s", func() error { return si.ds.Save(path) }); err != nil {
		return nil, err
	}
	err = e.stage("graph.store_open_s", func() error {
		lz, err := graph.OpenLazy(path)
		if err != nil {
			return err
		}
		si.lz = lz
		si.g, err = lz.Topology()
		return err
	})
	if err != nil {
		si.close()
		return nil, err
	}
	// Weights are seeded, not trained: serving cost does not depend on
	// what the weights are, and the answers are still checked exactly.
	si.model = nn.ModelSpec{
		Kind: nn.KindSAGE,
		Dims: []int{si.ds.Spec.ScaledF0, si.ds.Spec.ScaledHidden, si.ds.NumClasses},
		Seed: e.seed,
	}
	if si.live, err = si.start(serve.NewLazyFeatureSource(si.lz), 0); err != nil {
		si.close()
		return nil, err
	}
	if e.traced {
		src := tracedFeatures{serve.NewLazyFeatureSource(si.lz), &si.rowT}
		if si.shadow, err = si.start(src, 100); err != nil {
			si.close()
			return nil, err
		}
	}
	return si, nil
}

// start brings up one server over feats behind a loopback listener,
// connects the clients, and fills the cache.
func (si *serveInstance) start(feats serve.FeatureSource, seedOffset int64) (*served, error) {
	model, err := nn.NewModel(si.model, nil)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Source{Graph: si.g, Features: feats}, model,
		serve.WithPolicy(serve.PolicyLRU),
		serve.WithCacheBytes(serveCacheBytes),
		serve.WithBatchWindow(serveWindow),
		serve.WithBatchMaxNodes(serveBatchMax),
	)
	if err != nil {
		return nil, err
	}
	sv := &served{srv: srv, http: httptest.NewServer(srv)}
	for c := 0; c < serveClients; c++ {
		gen, err := si.generator(si.e.seed + seedOffset + int64(c))
		if err != nil {
			sv.stop()
			return nil, err
		}
		sv.clients = append(sv.clients, &client{
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
			gen:  gen,
		})
	}
	if _, err := si.drive(sv, si.spec.warmReqs); err != nil {
		sv.stop()
		return nil, err
	}
	return sv, nil
}

func (si *serveInstance) generator(seed int64) (serve.Generator, error) {
	if si.spec.zipf {
		return serve.NewZipfGenerator(si.g, seed, serveZipfS)
	}
	return serve.NewUniformGenerator(si.g.NumNodes, seed)
}

func (sv *served) stop() {
	if sv == nil {
		return
	}
	for _, c := range sv.clients {
		c.http.CloseIdleConnections()
	}
	sv.http.Close()
	sv.srv.Close()
}

// request sends one predict call and returns its client-side latency
// and the response body.
func (si *serveInstance) request(sv *served, c *client, nodes []graph.NodeID) (time.Duration, []byte, error) {
	body, err := json.Marshal(serve.PredictRequest{Nodes: nodes})
	if err != nil {
		return 0, nil, err
	}
	si.e.attempted.Add(1)
	t0 := time.Now()
	resp, err := c.http.Post(sv.http.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return d, raw, nil
}

// drive sends reqs requests through sv's clients, each back to back on
// its own connection.
func (si *serveInstance) drive(sv *served, reqs int) (sliceSample, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		lats []float64
	)
	t0 := time.Now()
	for ci, c := range sv.clients {
		n := reqs / len(sv.clients)
		if ci < reqs%len(sv.clients) {
			n++
		}
		wg.Add(1)
		go func(c *client, n int) {
			defer wg.Done()
			mine := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				nodes := serve.NextBatch(c.gen, serveReqNodes)
				d, raw, err := si.request(sv, c, nodes)
				if err != nil {
					si.e.violation("predict %v: %v", nodes, err)
					continue
				}
				mine = append(mine, d.Seconds()*1e3)
				if c.sent++; c.sent%serveCheckEvery == 0 {
					si.mu.Lock()
					si.checks = append(si.checks, checked{nodes, raw})
					si.mu.Unlock()
				}
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}(c, n)
	}
	wg.Wait()
	s := sliceSample{opMs: lats, items: int64(len(lats) * serveReqNodes), wall: time.Since(t0)}
	if len(lats) == 0 {
		return s, fmt.Errorf("benchmark: every request of the slice failed")
	}
	return s, nil
}

func (si *serveInstance) slice() (sliceSample, error) {
	return si.drive(si.live, si.spec.sliceReqs)
}

// verify compares the kept responses, bit for bit, with a reference
// forward pass over the fully materialised dataset.
func (si *serveInstance) verify() error {
	model, err := nn.NewModel(si.model, nil)
	if err != nil {
		return err
	}
	for _, c := range si.checks {
		var got serve.PredictResponse
		if err := json.Unmarshal(c.body, &got); err != nil {
			si.e.violation("response for %v: %v", c.nodes, err)
			continue
		}
		want, err := serve.DirectPredict(model, si.ds, c.nodes, 1)
		if err != nil {
			return err
		}
		if !samePredictions(got.Predictions, want) {
			si.e.violation("served answer for %v differs from direct inference", c.nodes)
		}
	}
	return nil
}

func samePredictions(a, b []serve.Prediction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Label != b[i].Label || len(a[i].Logits) != len(b[i].Logits) {
			return false
		}
		for j := range a[i].Logits {
			if math.Float32bits(a[i].Logits[j]) != math.Float32bits(b[i].Logits[j]) {
				return false
			}
		}
	}
	return true
}

func (si *serveInstance) close() {
	si.live.stop()
	si.shadow.stop()
	if si.lz != nil {
		si.lz.Close()
	}
}

// ---- traced pass ----

func (si *serveInstance) trace(budget time.Duration) error {
	e := si.e
	var liveMs, shadowMs []float64
	inf, bat := si.shadow.srv.Inferencer(), si.shadow.srv.Batcher()
	c0, b0 := inf.CacheStats(), bat.Stats()
	si.rowT.take()
	reqs := 0
	deadline := time.Now().Add(budget * 55 / 100)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		s, err := si.drive(si.live, si.spec.sliceReqs)
		if err != nil {
			return err
		}
		liveMs = append(liveMs, s.opMs...)
		err = e.rec.under("serve.slice", func() error {
			s, err = si.drive(si.shadow, si.spec.sliceReqs)
			return err
		})
		if err != nil {
			return err
		}
		shadowMs = append(shadowMs, s.opMs...)
		reqs += si.spec.sliceReqs
	}
	c1, b1 := inf.CacheStats(), bat.Stats()
	rowS, rows := si.rowT.take()
	n := float64(reqs)
	hits, misses := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	batches := float64(b1.Batches - b0.Batches)
	e.set("serve.cache_hit_rate", ratio(hits, hits+misses))
	e.set("serve.evictions_per_req", float64(c1.Evictions-c0.Evictions)/n)
	e.set("serve.source_rows_per_req", float64(rows)/n)
	e.set("serve.source_fetch_ms_per_req", rowS*1e3/n)
	e.set("serve.batch_mean_nodes", ratio(float64(b1.NodesServed-b0.NodesServed), batches))
	e.set("serve.batch_mean_requests", ratio(float64(b1.Requests-b0.Requests), batches))
	e.set("serve.flush_window_share", ratio(float64(b1.FlushWindow-b0.FlushWindow), batches))
	e.set("serve.req_p50_ms", median(liveMs))
	e.set("serve.req_p99_ms", percentile(liveMs, 0.99))
	e.set("harness.trace_overhead_ratio", ratio(median(shadowMs), median(liveMs)))

	if err := si.replay(budget * 25 / 100); err != nil {
		return err
	}
	return si.probeBatcher(budget * 10 / 100)
}

// replay runs the stages of one served request as four sequential
// public calls, over the workload's own request distribution and a
// cache of the server's size.
func (si *serveInstance) replay(budget time.Duration) error {
	e := si.e
	model, err := nn.NewModel(si.model, nil)
	if err != nil {
		return err
	}
	feats := serve.NewLazyFeatureSource(si.lz)
	cache, err := serve.NewCache(serve.PolicyLRU, serve.CacheConfig{
		CapBytes: serveCacheBytes,
		RowBytes: serve.StoredRowBytes(feats.Dim(), serve.FeatureSourceDtype(feats)),
	})
	if err != nil {
		return err
	}
	defer cache.Close()
	gen, err := si.generator(e.seed + 200)
	if err != nil {
		return err
	}
	gather := sampler.NewFullNeighbor(si.g, len(si.model.Dims)-1)
	pool := tensor.NewPool(1)
	scratch := make([]float32, feats.Dim())
	var frontier, fetch, infer, encode []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < si.spec.warmReqs+20 || time.Now().Before(deadline); i++ {
		nodes := serve.NextBatch(gen, serveReqNodes)
		var stage [4]time.Duration
		err := e.rec.under("replay.request", func() error {
			start := time.Now()
			mb := gather.Sample(nil, nodes)
			e.rec.observe(nil, "sampler.FullNeighbor", 0, start)
			stage[0] = time.Since(start)

			start = time.Now()
			ids := mb.InputNodes()
			x0 := model.Buffers().Get(len(ids), feats.Dim())
			for j, v := range ids {
				if _, ok := cache.Get(v, x0.Row(j)); ok {
					continue
				}
				row, err := feats.Row(v, scratch)
				if err != nil {
					return err
				}
				copy(x0.Row(j), row)
				cache.Put(v, row)
			}
			e.rec.observe(nil, "serve.fetch", 0, start)
			stage[1] = time.Since(start)

			start = time.Now()
			logits := model.Infer(pool, mb, x0)
			e.rec.observe(nil, "nn.Infer", 0, start)
			stage[2] = time.Since(start)

			start = time.Now()
			preds := make([]serve.Prediction, len(nodes))
			for j, v := range nodes {
				preds[j] = serve.Prediction{Node: v, Logits: append([]float32(nil), logits.Row(j)...)}
			}
			if _, err := json.Marshal(serve.PredictResponse{Predictions: preds}); err != nil {
				return err
			}
			e.rec.observe(nil, "json.Marshal", 0, start)
			stage[3] = time.Since(start)
			model.Buffers().Put(logits)
			model.Buffers().Put(x0)
			return nil
		})
		if err != nil {
			return err
		}
		if i < si.spec.warmReqs {
			continue // the replay's own cache is still filling
		}
		frontier = append(frontier, stage[0].Seconds()*1e3)
		fetch = append(fetch, stage[1].Seconds()*1e3)
		infer = append(infer, stage[2].Seconds()*1e3)
		encode = append(encode, stage[3].Seconds()*1e3)
	}
	e.set("serve.frontier_ms", median(frontier))
	e.set("serve.fetch_ms", median(fetch))
	e.set("nn.infer_ms", median(infer))
	e.set("serve.encode_ms", median(encode))
	return nil
}

// probeBatcher times Batcher.Predict alone on the workload's stream,
// then one fixed request, answered from the cache, straight into
// Batcher.Predict and over HTTP: the difference is what the HTTP layer
// costs a request.
func (si *serveInstance) probeBatcher(budget time.Duration) error {
	e := si.e
	gen, err := si.generator(e.seed + 300)
	if err != nil {
		return err
	}
	bat := si.live.srv.Batcher()
	var stream, direct, overHTTP []float64
	deadline := time.Now().Add(budget / 2)
	for i := 0; i < 20 || time.Now().Before(deadline); i++ {
		start := time.Now()
		if _, err := bat.Predict(serve.NextBatch(gen, serveReqNodes)); err != nil {
			return err
		}
		e.rec.observe(nil, "serve.Batcher.Predict", 0, start)
		stream = append(stream, time.Since(start).Seconds()*1e3)
	}
	hot := serve.NextBatch(gen, serveReqNodes)
	viaBatcher := func() error {
		start := time.Now()
		_, err := bat.Predict(hot)
		direct = append(direct, time.Since(start).Seconds()*1e3)
		return err
	}
	viaHTTP := func() error {
		d, _, err := si.request(si.live, si.live.clients[0], hot)
		overHTTP = append(overHTTP, d.Seconds()*1e3)
		return err
	}
	deadline = time.Now().Add(budget / 2)
	for i := 0; i < 20 || time.Now().Before(deadline); i++ {
		first, second := viaBatcher, viaHTTP
		if i%2 == 1 { // alternate, so neither inherits the other's garbage every time
			first, second = second, first
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
	}
	e.set("serve.batcher_p50_ms", median(stream))
	e.set("serve.http_overhead_ms", median(overHTTP)-median(direct))
	return nil
}
