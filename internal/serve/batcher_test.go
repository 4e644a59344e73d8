package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"argo/internal/graph"
)

func batcherFixture(t *testing.T, cfg BatcherConfig) (*Batcher, *Inferencer, func()) {
	t.Helper()
	ds, m, _ := serveFixture(t)
	inf, err := newInferencer(m, ds.Graph, NewMatrixFeatureSource(ds.Features), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(inf, cfg)
	return b, inf, b.Close
}

// waitEntering spins until the batcher's count of callers on their way
// reads want.
func waitEntering(t *testing.T, b *Batcher, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.entering.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("entering = %d, want %d", b.entering.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Determinism across batch compositions: requests coalesced into one
// batch produce exactly the logits each would get alone. The batches
// are built without relying on timing: {100} is picked up and held
// inside the forward pass (the test owns inf.mu) while {1,2,3} and
// {3,50} queue behind it, so the second batch merges exactly those two.
// {100} is enqueued as Predict does it, so entering is 1 until the
// collector has taken it.
func TestBatcherCoalescedMatchesSolo(t *testing.T) {
	reqs := [][]graph.NodeID{{100}, {1, 2, 3}, {3, 50}}
	// Reference: each request served alone (window 0 → no coalescing).
	solo, _, closeSolo := batcherFixture(t, BatcherConfig{})
	want := make([][]Prediction, len(reqs))
	for i, r := range reqs {
		p, err := solo.Predict(r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	closeSolo()
	// Coalesced: the window is an hour, so only the idle rule flushes.
	b, inf, closeB := batcherFixture(t, BatcherConfig{Window: time.Hour})
	defer closeB()
	got := make([][]Prediction, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = b.Predict(reqs[i])
		}()
	}
	inf.mu.Lock()
	first := &batchRequest{nodes: reqs[0], reply: make(chan batchReply, 1), enq: time.Now()}
	b.entering.Add(1)
	b.reqs <- first
	waitEntering(t, b, 0) // the collector holds {100}, blocked on inf.mu
	submit(1)
	submit(2)
	waitEntering(t, b, 2) // both queued behind it
	inf.mu.Unlock()
	wg.Wait()
	rep := <-first.reply
	got[0], errs[0] = rep.preds, rep.err
	for i := range reqs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("request %d: %d predictions, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j].Node != want[i][j].Node || !logitsEqual(got[i][j].Logits, want[i][j].Logits) {
				t.Fatalf("request %d node %d: coalesced logits differ from solo", i, want[i][j].Node)
			}
		}
	}
	s := b.Stats()
	if s.Requests != 3 || s.Batches != 2 {
		t.Fatalf("requests = %d, batches = %d, want 3 and 2", s.Requests, s.Batches)
	}
	// Node 3 appears in two requests but is forwarded once.
	if s.NodesServed != 5 {
		t.Fatalf("nodes served = %d, want 5: cross-request dedup did not happen", s.NodesServed)
	}
	if s.FlushIdle != 2 || s.FlushWindow != 0 {
		t.Fatalf("flush causes idle=%d window=%d, want 2/0", s.FlushIdle, s.FlushWindow)
	}
	if s.MeanLatencyMicros <= 0 {
		t.Fatal("latency accounting missing")
	}
}

// A lone request is flushed at once: nobody else is on the way, so the
// window is not waited out.
func TestBatcherLoneRequestSkipsWindow(t *testing.T) {
	b, _, closeB := batcherFixture(t, BatcherConfig{Window: time.Hour})
	defer closeB()
	done := make(chan error, 1)
	go func() {
		_, err := b.Predict([]graph.NodeID{7})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lone request waited for the window (an hour)")
	}
	if s := b.Stats(); s.FlushIdle != 1 || s.FlushWindow != 0 {
		t.Fatalf("flush causes idle=%d window=%d, want 1/0", s.FlushIdle, s.FlushWindow)
	}
}

// The size cap flushes without waiting for the window.
func TestBatcherSizeCapFlushes(t *testing.T) {
	b, _, closeB := batcherFixture(t, BatcherConfig{Window: time.Hour, MaxNodes: 2})
	defer closeB()
	done := make(chan error, 1)
	go func() {
		_, err := b.Predict([]graph.NodeID{4, 5, 6}) // one request over the cap: one batch
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("size-capped batch never flushed (window is an hour)")
	}
	s := b.Stats()
	if s.FlushSize != 1 || s.FlushWindow != 0 {
		t.Fatalf("flush causes size=%d window=%d, want 1/0", s.FlushSize, s.FlushWindow)
	}
	if s.MaxBatchNodes != 3 {
		t.Fatalf("max batch nodes = %d, want 3 (oversized request still runs whole)", s.MaxBatchNodes)
	}
}

// The window flushes a batch whose expected company never arrives:
// entering is bumped by hand, as a caller that committed and then
// stalled, so the batch waits out the window.
func TestBatcherWindowFlushes(t *testing.T) {
	const window = 10 * time.Millisecond
	b, _, closeB := batcherFixture(t, BatcherConfig{Window: window, MaxNodes: 1000})
	defer closeB()
	b.entering.Add(1)
	start := time.Now()
	if _, err := b.Predict([]graph.NodeID{8}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < window || elapsed > 5*time.Second {
		t.Fatalf("window flush took %v, want at least %v", elapsed, window)
	}
	if s := b.Stats(); s.FlushWindow != 1 || s.FlushIdle != 0 {
		t.Fatalf("flush causes = %+v, want one window flush", s)
	}
}

// Graceful drain: queued work is answered, later calls are refused.
func TestBatcherDrain(t *testing.T) {
	b, _, _ := batcherFixture(t, BatcherConfig{Window: time.Hour, MaxNodes: 1000})
	// Enqueue directly so the request is provably in flight before Close
	// (an hour window guarantees it cannot flush on its own).
	r := &batchRequest{nodes: []graph.NodeID{9}, reply: make(chan batchReply, 1), enq: time.Now()}
	b.reqs <- r
	b.Close()
	rep := <-r.reply
	if rep.err != nil {
		t.Fatalf("in-flight request must be answered during drain, got %v", rep.err)
	}
	if len(rep.preds) != 1 || rep.preds[0].Node != 9 {
		t.Fatalf("drain flush answered %+v", rep.preds)
	}
	if s := b.Stats(); s.FlushDrain != 1 {
		t.Fatalf("flush causes = %+v, want one drain flush", s)
	}
	if _, err := b.Predict([]graph.NodeID{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Predict = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func TestBatcherRejectsOutOfRange(t *testing.T) {
	b, inf, closeB := batcherFixture(t, BatcherConfig{})
	defer closeB()
	if _, err := b.Predict([]graph.NodeID{graph.NodeID(inf.NumNodes())}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-range node: %v, want ErrBadRequest", err)
	}
	if _, err := b.Predict([]graph.NodeID{-1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative node: %v, want ErrBadRequest", err)
	}
	if p, err := b.Predict(nil); p != nil || err != nil {
		t.Fatal("empty request should be a cheap no-op")
	}
}

// Duplicate nodes within one request are answered from the same row.
func TestBatcherDuplicateNodesInRequest(t *testing.T) {
	b, _, closeB := batcherFixture(t, BatcherConfig{})
	defer closeB()
	p, err := b.Predict([]graph.NodeID{5, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[0].Node != 5 || p[1].Node != 5 || !logitsEqual(p[0].Logits, p[1].Logits) {
		t.Fatalf("duplicate handling wrong: %+v", p)
	}
}
