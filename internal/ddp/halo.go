package ddp

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"argo/internal/graph"
	"argo/internal/tensor"
	"argo/internal/tensor/half"
)

// HaloExchange routes feature-row, label, and halo-gradient traffic
// between training replicas in a sharded run: every global node is
// owned by exactly one replica, and a replica gathering a mini-batch
// pulls foreign rows through the exchange instead of from a global
// feature matrix. All traffic is *batched*: a gather sends at most one
// message per (peer, call) — grouped by owner, carried by the pluggable
// Transport — instead of one lookup per row, which is what keeps the
// protocol viable once shards live on different hosts. Row order in the
// results follows the requested ids exactly, so the batched gather is
// bit-identical to gathering from the global feature matrix (and to the
// per-row exchange it replaced).
//
// The reverse path (ScatterGradients / CollectGradients) routes
// halo-row gradient contributions back to their owning replicas with
// the same per-peer batching — the building block a partition-local
// sampler needs to train without ever assembling the global topology.
//
// The exchange is safe for concurrent use by all replicas (the engine
// overlaps each replica's halo fetches with its compute); the serve
// functions it is built over must be read-only, which shard-materialised
// matrices are.
type HaloExchange struct {
	owner      func(graph.NodeID) (int, error)
	serveFeat  []func(graph.NodeID) ([]float32, error)
	serveLabel []func(graph.NodeID) (int32, error)
	featDim    int
	tr         Transport
	plan       *ExchangePlan
	wireDtype  graph.FeatDtype

	mu       sync.Mutex
	stats    []HaloStats
	peers    [][]PeerCounts // [from][to] remote traffic matrix
	lastSnap HaloStats      // cumulative total at the previous Snapshot call

	// grads[owner][from] holds the partial sums contributed by replica
	// `from` to nodes owned by `owner`, under gmu[owner]. Keeping sources
	// separate and reducing them in ascending replica order at collect
	// time makes the accumulated floats independent of message arrival
	// order — the same bit-reproducibility the forward path gets for
	// free. The tables are emptied by a collect, never reallocated.
	gmu   []sync.Mutex
	grads [][]*tensor.RowTable
}

// HaloStats counts one replica's exchange traffic. RemoteBytes is the
// *logical* volume — the float32 bytes the moved rows represent,
// independent of wire encoding — while WireBytes is what the framed
// messages actually occupy on the wire (length prefix, headers, ids,
// and dtype-encoded payloads). With an fp32 wire the two differ only by
// framing overhead; with an fp16 wire WireBytes is roughly half.
type HaloStats struct {
	LocalRows   int64 // feature rows + labels served from the replica's own shards
	RemoteRows  int64 // feature rows + labels fetched from other replicas
	RemoteBytes int64 // logical float32 bytes remote rows, labels, and gradients represent
	WireBytes   int64 // framed bytes the batched messages occupy on the wire
	Messages    int64 // batched request messages sent (the per-peer count)
	GradRows    int64 // halo-gradient rows routed to other replicas
}

// Add accumulates other into s.
func (s *HaloStats) Add(other HaloStats) {
	s.LocalRows += other.LocalRows
	s.RemoteRows += other.RemoteRows
	s.RemoteBytes += other.RemoteBytes
	s.WireBytes += other.WireBytes
	s.Messages += other.Messages
	s.GradRows += other.GradRows
}

// Sub subtracts other from s. Used to turn two cumulative readings into
// an interval delta (e.g. per-epoch curves).
func (s *HaloStats) Sub(other HaloStats) {
	s.LocalRows -= other.LocalRows
	s.RemoteRows -= other.RemoteRows
	s.RemoteBytes -= other.RemoteBytes
	s.WireBytes -= other.WireBytes
	s.Messages -= other.Messages
	s.GradRows -= other.GradRows
}

// PeerCounts is the traffic volume of one directed (from, to) replica
// pair.
type PeerCounts struct {
	Rows      int64 `json:"rows"`       // feature/label/gradient rows moved
	Bytes     int64 `json:"bytes"`      // logical float32 bytes those rows represent
	WireBytes int64 `json:"wire_bytes"` // framed bytes on the wire
	Messages  int64 `json:"messages"`   // batched messages sent
}

// Add accumulates other into c.
func (c *PeerCounts) Add(other PeerCounts) {
	c.Rows += other.Rows
	c.Bytes += other.Bytes
	c.WireBytes += other.WireBytes
	c.Messages += other.Messages
}

// PeerTraffic is one edge of the exchange's directed traffic matrix.
type PeerTraffic struct {
	From int `json:"from"`
	To   int `json:"to"`
	PeerCounts
}

// SortPeerTraffic orders traffic rows deterministically: ascending
// From, then ascending To — the serialization order -loss-json and the
// Report promise.
func SortPeerTraffic(rows []PeerTraffic) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].From != rows[j].From {
			return rows[i].From < rows[j].From
		}
		return rows[i].To < rows[j].To
	})
}

// ExchangeStats is a run-level traffic summary: the totals plus the
// directed per-peer matrix, with peers in deterministic (From, To)
// order. It is what core.Trainer accumulates across auto-tuner
// re-launches and what argo.Report serialises.
type ExchangeStats struct {
	Transport   string        `json:"transport,omitempty"`
	LocalRows   int64         `json:"local_rows"`
	RemoteRows  int64         `json:"remote_rows"`
	RemoteBytes int64         `json:"remote_bytes"`
	WireBytes   int64         `json:"wire_bytes"`
	Messages    int64         `json:"messages"`
	GradRows    int64         `json:"grad_rows,omitempty"`
	Peers       []PeerTraffic `json:"peers,omitempty"`
}

// ExchangePlan sizes the exchange's per-peer batch buffers from the
// shard manifest's cut-arc counts — the planner input a multi-node
// deployment would use to provision links before moving any feature
// bytes.
type ExchangePlan struct {
	// CutArcs[r] is the total cut-arc count of the shards replica r
	// owns (graph.ShardManifest.ReplicaCutArcs).
	CutArcs []int64
	// Total is the shard set's whole edge cut.
	Total int64
}

// PlanFromCuts builds a plan from per-replica cut-arc counts.
func PlanFromCuts(cuts []int64) *ExchangePlan {
	p := &ExchangePlan{CutArcs: cuts}
	for _, c := range cuts {
		p.Total += c
	}
	return p
}

// batchHint estimates how many foreign ids one gather by replica r
// sends to one peer, for buffer preallocation. Cut arcs bound the
// distinct halo nodes a replica can ever reference; a mini-batch
// touches a fraction of them, so a conservative per-call hint divides
// by the peer count (capped to keep pathological manifests from
// over-allocating).
func (p *ExchangePlan) batchHint(r, numReplicas int) int {
	if p == nil || r < 0 || r >= len(p.CutArcs) || numReplicas < 2 {
		return 0
	}
	h := int(p.CutArcs[r]) / (numReplicas - 1)
	const maxHint = 1 << 16
	if h > maxHint {
		h = maxHint
	}
	return h
}

// ExchangeOptions configures NewHaloExchangeOpts.
type ExchangeOptions struct {
	// Transport carries the batched messages. Nil defaults to the
	// in-process transport.
	Transport Transport
	// Plan supplies per-replica cut-arc counts for buffer sizing; nil
	// means no preallocation hints.
	Plan *ExchangePlan
	// WireDtype selects the wire encoding of float payloads (feature
	// responses and gradient pushes). The engine negotiates it from the
	// store dtype: an fp16 store's rows are fp16-exact, so shipping them
	// as fp16 bits is lossless and every transport stays bit-identical.
	// With DtypeF16 the exchange also quantises gradient contributions
	// (clamp to the finite fp16 range, round to nearest-even) on every
	// path — local and remote alike — before any accumulation, keeping
	// training deterministic across transports and shard counts. The
	// zero value is the full-precision fp32 wire.
	WireDtype graph.FeatDtype
}

// NewHaloExchange builds an exchange over numReplicas replicas with the
// in-process transport. owner maps a global node to its owning replica;
// serveFeat[r]/serveLabel[r] return the feature row / label of a node
// replica r owns.
func NewHaloExchange(
	numReplicas, featDim int,
	owner func(graph.NodeID) (int, error),
	serveFeat []func(graph.NodeID) ([]float32, error),
	serveLabel []func(graph.NodeID) (int32, error),
) (*HaloExchange, error) {
	return NewHaloExchangeOpts(numReplicas, featDim, owner, serveFeat, serveLabel, ExchangeOptions{})
}

// NewHaloExchangeOpts is NewHaloExchange with an explicit transport and
// plan. The exchange owns the transport: Close closes it.
func NewHaloExchangeOpts(
	numReplicas, featDim int,
	owner func(graph.NodeID) (int, error),
	serveFeat []func(graph.NodeID) ([]float32, error),
	serveLabel []func(graph.NodeID) (int32, error),
	opt ExchangeOptions,
) (*HaloExchange, error) {
	if numReplicas < 1 {
		return nil, fmt.Errorf("ddp: %d replicas", numReplicas)
	}
	if featDim < 1 {
		return nil, fmt.Errorf("ddp: feature dim %d", featDim)
	}
	if owner == nil || len(serveFeat) != numReplicas || len(serveLabel) != numReplicas {
		return nil, fmt.Errorf("ddp: exchange needs an owner map and %d feature/label servers", numReplicas)
	}
	tr := opt.Transport
	if tr == nil {
		tr = NewInprocTransport()
	}
	h := &HaloExchange{
		owner:      owner,
		serveFeat:  serveFeat,
		serveLabel: serveLabel,
		featDim:    featDim,
		tr:         tr,
		plan:       opt.Plan,
		wireDtype:  opt.WireDtype,
		stats:      make([]HaloStats, numReplicas),
		gmu:        make([]sync.Mutex, numReplicas),
		grads:      make([][]*tensor.RowTable, numReplicas),
	}
	for o := range h.grads {
		h.grads[o] = make([]*tensor.RowTable, numReplicas)
		for from := range h.grads[o] {
			h.grads[o][from] = tensor.NewRowTable(featDim)
		}
	}
	h.peers = make([][]PeerCounts, numReplicas)
	for r := range h.peers {
		h.peers[r] = make([]PeerCounts, numReplicas)
	}
	handlers := make([]Handler, numReplicas)
	for r := 0; r < numReplicas; r++ {
		r := r
		handlers[r] = func(req *Request) (*Response, error) { return h.handle(r, req) }
	}
	if err := tr.Bind(handlers); err != nil {
		return nil, err
	}
	return h, nil
}

// handle answers one batched request on behalf of owning replica o.
func (h *HaloExchange) handle(o int, req *Request) (*Response, error) {
	switch req.Kind {
	case MsgFeatures:
		// Echo the requested dtype so the response payload travels in the
		// negotiated encoding whichever transport frames it.
		resp := &Response{Dtype: req.Dtype, Feat: make([]float32, len(req.IDs)*h.featDim)}
		for i, v := range req.IDs {
			row, err := h.serveFeat[o](v)
			if err != nil {
				return nil, fmt.Errorf("ddp: replica %d serving node %d: %w", o, v, err)
			}
			if len(row) != h.featDim {
				return nil, fmt.Errorf("ddp: node %d served %d-wide row, want %d", v, len(row), h.featDim)
			}
			copy(resp.Feat[i*h.featDim:], row)
		}
		return resp, nil
	case MsgLabels:
		resp := &Response{Labels: make([]int32, len(req.IDs))}
		for i, v := range req.IDs {
			lab, err := h.serveLabel[o](v)
			if err != nil {
				return nil, fmt.Errorf("ddp: replica %d serving label %d: %w", o, v, err)
			}
			resp.Labels[i] = lab
		}
		return resp, nil
	case MsgGradients:
		if len(req.Grad) != len(req.IDs)*h.featDim {
			return nil, fmt.Errorf("ddp: gradient message carries %d values for %d ids (dim %d)",
				len(req.Grad), len(req.IDs), h.featDim)
		}
		if req.From < 0 || req.From >= len(h.stats) {
			return nil, fmt.Errorf("ddp: gradient message from replica %d of %d", req.From, len(h.stats))
		}
		h.accumGradients(o, req.From, req.IDs, req.Grad)
		return &Response{}, nil
	}
	return nil, fmt.Errorf("ddp: unknown message kind %d", req.Kind)
}

// accumGradients adds row-major gradient values for ids into owner o's
// partial-sum buffer for source replica `from`. Within one (o, from)
// pair accumulation follows the source's own call order; sources only
// mix at collect time, in replica order.
func (h *HaloExchange) accumGradients(o, from int, ids []graph.NodeID, grad []float32) {
	h.gmu[o].Lock()
	defer h.gmu[o].Unlock()
	buf := h.grads[o][from]
	for i, v := range ids {
		row, _ := buf.Add(v)
		src := grad[i*h.featDim : (i+1)*h.featDim]
		for j := range row {
			row[j] += src[j]
		}
	}
}

// Replicas returns the number of participating replicas.
func (h *HaloExchange) Replicas() int { return len(h.stats) }

// FeatDim returns the feature width the exchange serves.
func (h *HaloExchange) FeatDim() int { return h.featDim }

// TransportName reports which transport carries the exchange.
func (h *HaloExchange) TransportName() string { return h.tr.Name() }

// Plan returns the exchange's planner input (nil when built without
// one).
func (h *HaloExchange) Plan() *ExchangePlan { return h.plan }

// WireDtype reports the negotiated wire encoding of float payloads.
func (h *HaloExchange) WireDtype() graph.FeatDtype { return h.wireDtype }

// quantizeF16 rounds xs to fp16 in place, clamping to the finite fp16
// range first so out-of-range magnitudes saturate to ±65504 instead of
// overflowing to ±Inf. NaN passes through (as it would in fp32).
func quantizeF16(xs []float32) {
	for i, v := range xs {
		if v > half.MaxValue {
			v = half.MaxValue
		} else if v < -half.MaxValue {
			v = -half.MaxValue
		}
		xs[i] = half.Round(v)
	}
}

// Close releases the transport. The exchange must not be used after
// Close.
func (h *HaloExchange) Close() error { return h.tr.Close() }

// peerBatch collects the ids one call sends to one peer, plus their
// positions in the caller's id list so responses scatter back in order.
type peerBatch struct {
	ids []graph.NodeID
	pos []int
}

// routeForeign partitions ids by owner: local ids are handed to the
// local callback in order; foreign ids are appended to per-peer batches
// (allocated with the plan's size hint on first use).
func (h *HaloExchange) routeForeign(r int, ids []graph.NodeID, local func(i int, v graph.NodeID) error) ([]peerBatch, error) {
	batches := make([]peerBatch, len(h.stats))
	for i, v := range ids {
		o, err := h.owner(v)
		if err != nil {
			return nil, err
		}
		if o < 0 || o >= len(h.stats) {
			return nil, fmt.Errorf("ddp: node %d owned by replica %d of %d", v, o, len(h.stats))
		}
		if o == r {
			if err := local(i, v); err != nil {
				return nil, err
			}
			continue
		}
		b := &batches[o]
		if b.ids == nil {
			hint := h.plan.batchHint(r, len(h.stats))
			b.ids = make([]graph.NodeID, 0, hint)
			b.pos = make([]int, 0, hint)
		}
		b.ids = append(b.ids, v)
		b.pos = append(b.pos, i)
	}
	return batches, nil
}

// GatherFeatures assembles the feature matrix for ids on behalf of
// replica r: rows owned by r are copied locally, foreign rows travel in
// one batched message per owning peer. Row order follows ids exactly,
// so the result is bit-identical to gathering from the global feature
// matrix.
func (h *HaloExchange) GatherFeatures(r int, ids []graph.NodeID) (*tensor.Matrix, error) {
	if r < 0 || r >= len(h.stats) {
		return nil, fmt.Errorf("ddp: replica %d of %d", r, len(h.stats))
	}
	out := tensor.New(len(ids), h.featDim)
	var st HaloStats
	batches, err := h.routeForeign(r, ids, func(i int, v graph.NodeID) error {
		row, err := h.serveFeat[r](v)
		if err != nil {
			return fmt.Errorf("ddp: replica %d reading own node %d: %w", r, v, err)
		}
		if len(row) != h.featDim {
			return fmt.Errorf("ddp: node %d served %d-wide row, want %d", v, len(row), h.featDim)
		}
		copy(out.Row(i), row)
		st.LocalRows++
		return nil
	})
	if err != nil {
		return nil, err
	}
	perPeer := make([]PeerCounts, len(h.stats))
	for p := range batches {
		b := &batches[p]
		if len(b.ids) == 0 {
			continue
		}
		req := &Request{From: r, Kind: MsgFeatures, Dtype: h.wireDtype, IDs: b.ids}
		resp, err := h.tr.Call(p, req)
		if err != nil {
			return nil, fmt.Errorf("ddp: replica %d fetching %d rows from replica %d: %w", r, len(b.ids), p, err)
		}
		if len(resp.Feat) != len(b.ids)*h.featDim {
			return nil, fmt.Errorf("ddp: replica %d answered %d values for %d rows", p, len(resp.Feat), len(b.ids))
		}
		for i, pos := range b.pos {
			copy(out.Row(pos), resp.Feat[i*h.featDim:(i+1)*h.featDim])
		}
		rows, bytes := int64(len(b.ids)), int64(len(b.ids))*int64(h.featDim)*4
		wire := req.wireSize() + resp.wireSize()
		st.RemoteRows += rows
		st.RemoteBytes += bytes
		st.WireBytes += wire
		st.Messages++
		perPeer[p] = PeerCounts{Rows: rows, Bytes: bytes, WireBytes: wire, Messages: 1}
	}
	h.record(r, st, perPeer)
	return out, nil
}

// TargetLabels resolves the labels for ids on behalf of replica r, with
// foreign labels batched into one message per owning peer (4 bytes per
// remote label).
func (h *HaloExchange) TargetLabels(r int, ids []graph.NodeID) ([]int32, error) {
	if r < 0 || r >= len(h.stats) {
		return nil, fmt.Errorf("ddp: replica %d of %d", r, len(h.stats))
	}
	out := make([]int32, len(ids))
	var st HaloStats
	batches, err := h.routeForeign(r, ids, func(i int, v graph.NodeID) error {
		lab, err := h.serveLabel[r](v)
		if err != nil {
			return fmt.Errorf("ddp: replica %d reading own label %d: %w", r, v, err)
		}
		out[i] = lab
		st.LocalRows++
		return nil
	})
	if err != nil {
		return nil, err
	}
	perPeer := make([]PeerCounts, len(h.stats))
	for p := range batches {
		b := &batches[p]
		if len(b.ids) == 0 {
			continue
		}
		req := &Request{From: r, Kind: MsgLabels, Dtype: h.wireDtype, IDs: b.ids}
		resp, err := h.tr.Call(p, req)
		if err != nil {
			return nil, fmt.Errorf("ddp: replica %d fetching %d labels from replica %d: %w", r, len(b.ids), p, err)
		}
		if len(resp.Labels) != len(b.ids) {
			return nil, fmt.Errorf("ddp: replica %d answered %d labels for %d ids", p, len(resp.Labels), len(b.ids))
		}
		for i, pos := range b.pos {
			out[pos] = resp.Labels[i]
		}
		rows, bytes := int64(len(b.ids)), int64(len(b.ids))*4
		wire := req.wireSize() + resp.wireSize()
		st.RemoteRows += rows
		st.RemoteBytes += bytes
		st.WireBytes += wire
		st.Messages++
		perPeer[p] = PeerCounts{Rows: rows, Bytes: bytes, WireBytes: wire, Messages: 1}
	}
	h.record(r, st, perPeer)
	return out, nil
}

// ScatterGradients routes per-row gradient contributions back to the
// rows' owners on behalf of replica r — the reverse exchange. grads
// must be len(ids)×featDim; row i is the contribution to node ids[i].
// Contributions to r's own nodes accumulate locally; foreign rows
// travel in one batched message per owning peer and accumulate there.
// Owners drain their buffers with CollectGradients.
func (h *HaloExchange) ScatterGradients(r int, ids []graph.NodeID, grads *tensor.Matrix) error {
	if r < 0 || r >= len(h.stats) {
		return fmt.Errorf("ddp: replica %d of %d", r, len(h.stats))
	}
	if grads == nil || grads.Rows != len(ids) || grads.Cols != h.featDim {
		return fmt.Errorf("ddp: gradient matrix must be %d×%d", len(ids), h.featDim)
	}
	var st HaloStats
	var localIDs []graph.NodeID
	var localRows []int
	batches, err := h.routeForeign(r, ids, func(i int, v graph.NodeID) error {
		localIDs = append(localIDs, v)
		localRows = append(localRows, i)
		return nil
	})
	if err != nil {
		return err
	}
	if len(localIDs) > 0 {
		h.accumGradients(r, r, localIDs, h.gradRows(grads, localRows))
		st.LocalRows += int64(len(localIDs))
	}
	perPeer := make([]PeerCounts, len(h.stats))
	for p := range batches {
		b := &batches[p]
		if len(b.ids) == 0 {
			continue
		}
		flat := h.gradRows(grads, b.pos)
		req := &Request{From: r, Kind: MsgGradients, Dtype: h.wireDtype, IDs: b.ids, Grad: flat}
		resp, err := h.tr.Call(p, req)
		if err != nil {
			return fmt.Errorf("ddp: replica %d scattering %d gradient rows to replica %d: %w", r, len(b.ids), p, err)
		}
		rows, bytes := int64(len(b.ids)), int64(len(b.ids))*int64(h.featDim)*4
		wire := req.wireSize() + resp.wireSize()
		st.GradRows += rows
		st.RemoteBytes += bytes
		st.WireBytes += wire
		st.Messages++
		perPeer[p] = PeerCounts{Rows: rows, Bytes: bytes, WireBytes: wire, Messages: 1}
	}
	h.record(r, st, perPeer)
	return nil
}

// gradRows copies the given rows of grads into one row-major slice, the
// form they are accumulated and shipped in. With an fp16 wire every
// contribution — to a local row or a remote one — is quantised here,
// before any accumulation: the fp16 wire encode is then exact (a peer
// accumulates the bits an inproc call hands over directly), and the
// collected sums do not depend on which replica a contribution came
// from, and therefore not on the shard count or transport either.
func (h *HaloExchange) gradRows(grads *tensor.Matrix, rows []int) []float32 {
	flat := make([]float32, 0, len(rows)*h.featDim)
	for _, i := range rows {
		flat = append(flat, grads.Row(i)...)
	}
	if h.wireDtype == graph.DtypeF16 {
		quantizeF16(flat)
	}
	return flat
}

// CollectGradients drains the halo-gradient contributions accumulated
// for replica r's owned nodes and clears the buffer. The result is
// fully deterministic — nodes in ascending order, each row the sum of
// the per-source partial buffers reduced in ascending replica order —
// regardless of message arrival timing. It returns nil, nil when
// nothing accumulated.
func (h *HaloExchange) CollectGradients(r int) ([]graph.NodeID, *tensor.Matrix, error) {
	if r < 0 || r >= len(h.stats) {
		return nil, nil, fmt.Errorf("ddp: replica %d of %d", r, len(h.stats))
	}
	h.gmu[r].Lock()
	defer h.gmu[r].Unlock()
	bufs := h.grads[r]
	var ids []graph.NodeID
	for _, buf := range bufs {
		ids = append(ids, buf.IDs()...)
	}
	if len(ids) == 0 {
		return nil, nil, nil
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	out := tensor.New(len(ids), h.featDim)
	for i, v := range ids {
		row := out.Row(i)
		for _, buf := range bufs {
			if partial := buf.Row(v); partial != nil {
				for j := range row {
					row[j] += partial[j]
				}
			}
		}
	}
	for _, buf := range bufs {
		buf.Reset()
	}
	return ids, out, nil
}

// record folds one call's counters into the shared stats under the lock.
func (h *HaloExchange) record(r int, st HaloStats, perPeer []PeerCounts) {
	h.mu.Lock()
	h.stats[r].Add(st)
	for p := range perPeer {
		if perPeer[p] != (PeerCounts{}) {
			h.peers[r][p].Add(perPeer[p])
		}
	}
	h.mu.Unlock()
}

// Stats returns a copy of the per-replica traffic counters.
func (h *HaloExchange) Stats() []HaloStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HaloStats, len(h.stats))
	copy(out, h.stats)
	return out
}

// TotalStats sums the per-replica counters.
func (h *HaloExchange) TotalStats() HaloStats {
	var total HaloStats
	for _, s := range h.Stats() {
		total.Add(s)
	}
	return total
}

// Snapshot returns the traffic accumulated since the previous Snapshot
// call (or since construction, for the first call) and advances the
// snapshot mark. The cumulative counters reported by Stats, TotalStats,
// and Summary are untouched, so run totals and interval curves (e.g.
// per-epoch traffic) can be read from the same exchange.
func (h *HaloExchange) Snapshot() HaloStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	var total HaloStats
	for _, s := range h.stats {
		total.Add(s)
	}
	delta := total
	delta.Sub(h.lastSnap)
	h.lastSnap = total
	return delta
}

// PeerTraffic returns the non-zero edges of the directed traffic
// matrix in deterministic (From, To) order. The Rows of every edge sum
// to TotalStats().RemoteRows + GradRows: every remote row travels
// exactly one edge.
func (h *HaloExchange) PeerTraffic() []PeerTraffic {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []PeerTraffic
	for from := range h.peers {
		for to, c := range h.peers[from] {
			if c != (PeerCounts{}) {
				out = append(out, PeerTraffic{From: from, To: to, PeerCounts: c})
			}
		}
	}
	return out
}

// Summary assembles the exchange's ExchangeStats snapshot.
func (h *HaloExchange) Summary() ExchangeStats {
	total := h.TotalStats()
	return ExchangeStats{
		Transport:   h.tr.Name(),
		LocalRows:   total.LocalRows,
		RemoteRows:  total.RemoteRows,
		RemoteBytes: total.RemoteBytes,
		WireBytes:   total.WireBytes,
		Messages:    total.Messages,
		GradRows:    total.GradRows,
		Peers:       h.PeerTraffic(),
	}
}
