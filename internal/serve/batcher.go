package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"argo/internal/graph"
)

// ErrClosed is returned by Batcher.Predict once Close has begun:
// in-flight requests are answered, new ones are refused.
var ErrClosed = errors.New("serve: batcher closed")

// ErrBadRequest wraps client mistakes (out-of-range node ids) so the
// HTTP layer can answer 400 instead of 500.
var ErrBadRequest = errors.New("serve: bad request")

// BatcherConfig tunes the micro-batching policy.
type BatcherConfig struct {
	// Window bounds how long a batch may wait, after its first request,
	// for callers already on their way to the batcher. A batch with no
	// such caller is flushed at once, whatever the window. Zero (or
	// negative) disables the wait: every batch is flushed as soon as the
	// collector picks up its first request.
	Window time.Duration
	// MaxNodes flushes a batch as soon as its unique node count reaches
	// this cap (a single over-sized request still runs in one batch).
	// Zero means no size cap.
	MaxNodes int
}

// Batcher coalesces concurrent Predict calls into shared forward
// passes. A lone request is flushed at once; requests that queued
// while the previous batch ran, or that callers were already sending,
// are merged (for at most one window, or until the size cap): their
// node sets are deduplicated, one forward pass runs, and each caller
// gets back exactly its own nodes' predictions. Because the gather is
// full-neighborhood and the kernels have fixed reduction order,
// coalescing is invisible in the results — only in the latency.
type Batcher struct {
	inf  *Inferencer
	cfg  BatcherConfig
	reqs chan *batchRequest
	quit chan struct{} // closed by Close to start the drain
	done chan struct{} // closed by the collector after the drain
	// entering counts requests committed to b.reqs but not yet received
	// by the collector: the callers a batch may still wait for.
	entering atomic.Int64

	closeOnce sync.Once

	mu               sync.Mutex
	stats            BatcherStats // the two means are left to Stats
	latencySumMicros int64
}

// BatcherStats is a snapshot of the batcher counters for /statz.
type BatcherStats struct {
	Requests          int64   `json:"requests"`
	Batches           int64   `json:"batches"`
	NodesServed       int64   `json:"nodes_served"`
	FlushIdle         int64   `json:"flush_idle"`
	FlushWindow       int64   `json:"flush_window"`
	FlushSize         int64   `json:"flush_size"`
	FlushDrain        int64   `json:"flush_drain"`
	MaxBatchNodes     int     `json:"max_batch_nodes"`
	MeanBatchNodes    float64 `json:"mean_batch_nodes"`
	MeanLatencyMicros float64 `json:"mean_latency_micros"`
	MaxLatencyMicros  int64   `json:"max_latency_micros"`
}

type batchRequest struct {
	nodes []graph.NodeID
	reply chan batchReply
	enq   time.Time
}

type batchReply struct {
	preds []Prediction
	err   error
}

// NewBatcher starts the collector goroutine. Call Close to drain it.
func NewBatcher(inf *Inferencer, cfg BatcherConfig) *Batcher {
	b := &Batcher{
		inf:  inf,
		cfg:  cfg,
		reqs: make(chan *batchRequest, 256),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.collect()
	return b
}

// Predict submits nodes for classification and blocks until the batch
// containing them has run. The result has one prediction per requested
// node, in request order (duplicates within a request are answered from
// the same forward-pass row).
func (b *Batcher) Predict(nodes []graph.NodeID) ([]Prediction, error) {
	if len(nodes) == 0 {
		return nil, nil
	}
	if err := b.inf.checkNodes(nodes); err != nil {
		return nil, err // refused before it can fail a whole coalesced batch
	}
	r := &batchRequest{nodes: nodes, reply: make(chan batchReply, 1), enq: time.Now()}
	select {
	case <-b.done:
		return nil, ErrClosed
	default:
	}
	b.entering.Add(1)
	select {
	case b.reqs <- r:
	case <-b.done:
		b.entering.Add(-1)
		return nil, ErrClosed
	}
	select {
	case rep := <-r.reply:
		return rep.preds, rep.err
	case <-b.done:
		// The collector exited. If this request made the drain flush its
		// reply is already buffered; otherwise it was never picked up.
		select {
		case rep := <-r.reply:
			return rep.preds, rep.err
		default:
			return nil, ErrClosed
		}
	}
}

// Close drains the batcher: queued and in-flight requests are answered,
// then the collector exits. Safe to call more than once. Predict calls
// racing Close either join the drain flush or get ErrClosed.
func (b *Batcher) Close() {
	b.closeOnce.Do(func() { close(b.quit) })
	<-b.done
}

// Stats returns a snapshot of the batcher counters.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	if s.Batches > 0 {
		s.MeanBatchNodes = float64(s.NodesServed) / float64(s.Batches)
	}
	if s.Requests > 0 {
		s.MeanLatencyMicros = float64(b.latencySumMicros) / float64(s.Requests)
	}
	return s
}

const (
	flushCauseIdle = iota
	flushCauseWindow
	flushCauseSize
	flushCauseDrain
)

func (b *Batcher) collect() {
	defer close(b.done)
	var (
		pending []*batchRequest
		unique  = make(map[graph.NodeID]struct{})
		timer   *time.Timer
	)
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
		}
	}
	flush := func(cause int) {
		stopTimer()
		if len(pending) > 0 {
			b.runBatch(pending, cause)
			pending = nil
			unique = make(map[graph.NodeID]struct{})
		}
	}
	// idle reports that no other caller was on its way when r was
	// received, so there is nobody for the batch to wait for.
	add := func(r *batchRequest, idle bool) {
		pending = append(pending, r)
		for _, v := range r.nodes {
			unique[v] = struct{}{}
		}
		switch {
		case b.cfg.MaxNodes > 0 && len(unique) >= b.cfg.MaxNodes:
			flush(flushCauseSize)
		case b.cfg.Window <= 0 || idle:
			flush(flushCauseIdle)
		case timer == nil:
			timer = time.NewTimer(b.cfg.Window)
		}
	}
	for {
		var timerC <-chan time.Time
		if timer != nil {
			timerC = timer.C
		}
		select {
		case r := <-b.reqs:
			add(r, b.entering.Add(-1) == 0)
		case <-timerC:
			timer = nil
			flush(flushCauseWindow)
		case <-b.quit:
			// Drain: absorb everything already queued, answer it, exit.
			for {
				select {
				case r := <-b.reqs:
					b.entering.Add(-1)
					pending = append(pending, r)
				default:
					flush(flushCauseDrain)
					return
				}
			}
		}
	}
}

// runBatch deduplicates the pending requests' nodes (first-seen order),
// runs one forward pass, and fans the rows back out per request.
func (b *Batcher) runBatch(pending []*batchRequest, cause int) {
	index := make(map[graph.NodeID]int)
	var nodes []graph.NodeID
	for _, r := range pending {
		for _, v := range r.nodes {
			if _, ok := index[v]; !ok {
				index[v] = len(nodes)
				nodes = append(nodes, v)
			}
		}
	}
	preds, err := b.inf.Predict(nodes)
	now := time.Now()

	b.mu.Lock()
	b.stats.Batches++
	b.stats.Requests += int64(len(pending))
	b.stats.NodesServed += int64(len(nodes))
	b.stats.MaxBatchNodes = max(b.stats.MaxBatchNodes, len(nodes))
	switch cause {
	case flushCauseIdle:
		b.stats.FlushIdle++
	case flushCauseWindow:
		b.stats.FlushWindow++
	case flushCauseSize:
		b.stats.FlushSize++
	case flushCauseDrain:
		b.stats.FlushDrain++
	}
	for _, r := range pending {
		lat := now.Sub(r.enq).Microseconds()
		b.latencySumMicros += lat
		b.stats.MaxLatencyMicros = max(b.stats.MaxLatencyMicros, lat)
	}
	b.mu.Unlock()

	for _, r := range pending {
		if err != nil {
			r.reply <- batchReply{err: err}
			continue
		}
		out := make([]Prediction, len(r.nodes))
		for i, v := range r.nodes {
			out[i] = preds[index[v]]
		}
		r.reply <- batchReply{preds: out}
	}
}
