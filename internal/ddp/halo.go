package ddp

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"argo/internal/graph"
	"argo/internal/tensor"
)

// HaloExchange routes feature rows between training replicas in a
// sharded run: every global node is owned by exactly one replica, and a
// replica gathering a mini-batch pulls foreign rows through the exchange
// instead of from a global feature matrix. Labels never cross it: they
// are read-only and 4 bytes a node, so every replica reads them from one
// table built at setup. All traffic is *batched*: a gather sends at most one
// message per (peer, call) — grouped by owner, carried by the pluggable
// Transport — instead of one lookup per row, which is what keeps the
// protocol viable once shards live on different hosts. Row order in the
// results follows the requested ids exactly, so the batched gather is
// bit-identical to gathering from the global feature matrix (and to the
// per-row exchange it replaced).
//
// "Where does node v live" is answered by dense tables, never searched:
// owner maps every node to its replica, and each replica's RowServer (the
// engine builds them over graph.ShardSet's location table) turns a whole
// message or gather into rows in one call.
//
// Traffic is counted once: the rows each replica served itself, and a
// [from][to] matrix of remote rows, bytes and messages. Summary reports
// the cumulative totals and edges, Snapshot the totals since its last
// call; both derive every total from those counters.
//
// The exchange is safe for concurrent use by all replicas (the engine
// overlaps each replica's halo fetches with its compute); the row
// servers it is built over must be read-only, which shard-materialised
// matrices are.
type HaloExchange struct {
	owner     []int32 // node → owning replica
	servers   []RowServer
	featDim   int
	tr        Transport
	wireDtype graph.FeatDtype

	mu       sync.Mutex
	local    []int64        // replica → rows it served from its own shards
	peers    [][]PeerCounts // [from][to] remote traffic matrix
	lastSnap HaloStats      // cumulative total at the previous Snapshot call
}

// HaloStats totals exchange traffic. RemoteBytes is the *logical*
// volume — the float32 bytes the moved rows represent, independent of
// wire encoding — while WireBytes is what the framed messages actually
// occupy on the wire (length prefix, headers, ids, and dtype-encoded
// payloads). With an fp32 wire the two differ only by framing overhead;
// with an fp16 wire WireBytes is roughly half.
type HaloStats struct {
	LocalRows   int64 `json:"local_rows"`   // feature rows served from the replica's own shards
	RemoteRows  int64 `json:"remote_rows"`  // feature rows fetched from other replicas
	RemoteBytes int64 `json:"remote_bytes"` // logical float32 bytes remote rows represent
	WireBytes   int64 `json:"wire_bytes"`   // framed bytes the batched messages occupy on the wire
	Messages    int64 `json:"messages"`     // batched request messages sent (the per-peer count)
	// Deprecated: GradRows is always 0; no gradient rows are routed. It
	// stays only because the repo benchmark's traced pass reads it.
	GradRows int64 `json:"-"`
}

// Add accumulates other into s.
func (s *HaloStats) Add(other HaloStats) {
	s.LocalRows += other.LocalRows
	s.RemoteRows += other.RemoteRows
	s.RemoteBytes += other.RemoteBytes
	s.WireBytes += other.WireBytes
	s.Messages += other.Messages
}

// Sub subtracts other from s. Used to turn two cumulative readings into
// an interval delta (e.g. per-epoch curves).
func (s *HaloStats) Sub(other HaloStats) {
	s.LocalRows -= other.LocalRows
	s.RemoteRows -= other.RemoteRows
	s.RemoteBytes -= other.RemoteBytes
	s.WireBytes -= other.WireBytes
	s.Messages -= other.Messages
}

// PeerCounts is the traffic volume of one directed (from, to) replica
// pair.
type PeerCounts struct {
	Rows      int64 `json:"rows"`       // feature rows moved
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

// ExchangeStats is a run-level traffic summary: the totals plus the
// directed per-peer matrix, with peers in ascending (From, To) order —
// the serialization order -loss-json and the Report promise. It is what
// argo.GNNTrainer accumulates across the exchanges a tuned run rebuilds
// on process-count changes and what argo.Report serialises.
type ExchangeStats struct {
	Transport string `json:"transport,omitempty"`
	HaloStats
	Peers []PeerTraffic `json:"peers,omitempty"`
}

// Add accumulates other into s: totals sum, peer edges merge by
// (From, To) and stay in (From, To) order, and other's transport, when
// it names one, becomes s's.
func (s *ExchangeStats) Add(other ExchangeStats) {
	if other.Transport != "" {
		s.Transport = other.Transport
	}
	s.HaloStats.Add(other.HaloStats)
	peers := slices.Concat(s.Peers, other.Peers) // a copy: s.Peers may be shared
	slices.SortFunc(peers, func(a, b PeerTraffic) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	s.Peers = peers[:0]
	for _, p := range peers {
		if n := len(s.Peers); n > 0 && s.Peers[n-1].From == p.From && s.Peers[n-1].To == p.To {
			s.Peers[n-1].PeerCounts.Add(p.PeerCounts)
		} else {
			s.Peers = append(s.Peers, p)
		}
	}
}

// RowServer serves the feature rows one replica owns, a whole message or
// gather per call: the row of ids[i] goes to row at[i] of dst, or to row
// i when at is nil. The exchange asks only for nodes its owner table
// gives that replica.
type RowServer interface {
	Rows(ids []graph.NodeID, at []int32, dst []float32) error
}

// ExchangeOptions configures NewHaloExchange.
type ExchangeOptions struct {
	// Transport carries the batched messages. Nil defaults to the
	// in-process transport.
	Transport Transport
	// WireDtype selects the wire encoding of feature responses. The
	// engine negotiates it from the store dtype: an fp16 store's rows are
	// fp16-exact, so shipping them as fp16 bits is lossless and every
	// transport stays bit-identical. Nothing is quantised on the way. The
	// zero value is the full-precision fp32 wire.
	WireDtype graph.FeatDtype
}

// NewHaloExchange builds an exchange over len(servers) replicas serving
// featDim-wide rows: owner[v] is the replica owning global node v and
// servers[r] serves replica r's rows. The exchange owns the transport:
// Close closes it.
func NewHaloExchange(featDim int, owner []int32, servers []RowServer, opt ExchangeOptions) (*HaloExchange, error) {
	numReplicas := len(servers)
	if numReplicas < 1 {
		return nil, fmt.Errorf("ddp: %d replicas", numReplicas)
	}
	if featDim < 1 {
		return nil, fmt.Errorf("ddp: feature dim %d", featDim)
	}
	if len(owner) == 0 {
		return nil, fmt.Errorf("ddp: exchange needs an owner table")
	}
	for v, o := range owner {
		if o < 0 || int(o) >= numReplicas {
			return nil, fmt.Errorf("ddp: node %d owned by replica %d of %d", v, o, numReplicas)
		}
	}
	tr := opt.Transport
	if tr == nil {
		tr = NewInprocTransport()
	}
	h := &HaloExchange{
		owner:     owner,
		servers:   servers,
		featDim:   featDim,
		tr:        tr,
		wireDtype: opt.WireDtype,
		local:     make([]int64, numReplicas),
		peers:     make([][]PeerCounts, numReplicas),
	}
	handlers := make([]Handler, numReplicas)
	for r := range handlers {
		h.peers[r] = make([]PeerCounts, numReplicas)
		handlers[r] = func(req *Request) (*Response, error) { return h.handle(r, req) }
	}
	if err := tr.Bind(handlers); err != nil {
		return nil, err
	}
	return h, nil
}

// handle answers one batched request on behalf of owning replica o.
func (h *HaloExchange) handle(o int, req *Request) (*Response, error) {
	for _, v := range req.IDs {
		if v < 0 || int(v) >= len(h.owner) || int(h.owner[v]) != o {
			return nil, fmt.Errorf("ddp: replica %d asked about node %d, which it does not own", o, v)
		}
	}
	if req.Kind != MsgFeatures {
		return nil, fmt.Errorf("ddp: unknown message kind %d", req.Kind)
	}
	// Echo the requested dtype so the response payload travels in the
	// negotiated encoding whichever transport frames it.
	resp := &Response{Dtype: req.Dtype, Feat: make([]float32, len(req.IDs)*h.featDim)}
	if err := h.servers[o].Rows(req.IDs, nil, resp.Feat); err != nil {
		return nil, fmt.Errorf("ddp: replica %d serving %d rows: %w", o, len(req.IDs), err)
	}
	return resp, nil
}

// Close releases the transport. The exchange must not be used after
// Close.
func (h *HaloExchange) Close() error { return h.tr.Close() }

// routed is one call's ids grouped by owning replica: replica o owns
// ids[start[o]:start[o+1]], in the caller's order, and at holds their
// positions in the caller's list so answers land in order.
type routed struct {
	ids   []graph.NodeID
	at    []int32
	start []int32
}

func (rt *routed) group(o int) ([]graph.NodeID, []int32) {
	lo, hi := rt.start[o], rt.start[o+1]
	return rt.ids[lo:hi], rt.at[lo:hi]
}

// route groups ids by owner for a call by replica r, counting first so
// the per-peer batches are sized exactly, from the call itself.
func (h *HaloExchange) route(r int, ids []graph.NodeID) (routed, error) {
	n := len(h.peers)
	if r < 0 || r >= n {
		return routed{}, fmt.Errorf("ddp: replica %d of %d", r, n)
	}
	start := make([]int32, n+1)
	for _, v := range ids {
		if v < 0 || int(v) >= len(h.owner) {
			return routed{}, fmt.Errorf("ddp: node %d outside [0,%d)", v, len(h.owner))
		}
		start[h.owner[v]+1]++
	}
	for o := 0; o < n; o++ {
		start[o+1] += start[o]
	}
	rt := routed{ids: make([]graph.NodeID, len(ids)), at: make([]int32, len(ids)), start: start}
	next := slices.Clone(start[:n])
	for i, v := range ids {
		k := next[h.owner[v]]
		next[h.owner[v]]++
		rt.ids[k], rt.at[k] = v, int32(i)
	}
	return rt, nil
}

// callPeers is the one place a request crosses the transport: for every
// peer owning some of rt it sends one feature message on behalf of
// replica r, checks the reply's length, scatters its rows into feat and
// folds the call's own rows and its per-peer rows, bytes, wire bytes and
// messages into the counters.
func (h *HaloExchange) callPeers(r int, rt routed, feat *tensor.Matrix) error {
	own, _ := rt.group(r)
	perPeer := make([]PeerCounts, len(h.peers))
	for p := range perPeer {
		ids, at := rt.group(p)
		if p == r || len(ids) == 0 {
			continue
		}
		req := &Request{From: r, Kind: MsgFeatures, Dtype: h.wireDtype, IDs: ids}
		resp, err := h.tr.Call(p, req)
		if err != nil {
			return fmt.Errorf("ddp: replica %d sending replica %d a message of %d rows: %w", r, p, len(ids), err)
		}
		if len(resp.Feat) != len(ids)*h.featDim {
			return fmt.Errorf("ddp: replica %d answered %d values for %d rows", p, len(resp.Feat), len(ids))
		}
		for i, pos := range at {
			copy(feat.Row(int(pos)), resp.Feat[i*h.featDim:(i+1)*h.featDim])
		}
		perPeer[p] = PeerCounts{Rows: int64(len(ids)), Bytes: int64(len(ids)*h.featDim) * 4, WireBytes: req.wireSize() + resp.wireSize(), Messages: 1}
	}
	h.mu.Lock()
	h.local[r] += int64(len(own))
	for p, c := range perPeer {
		h.peers[r][p].Add(c)
	}
	h.mu.Unlock()
	return nil
}

// GatherFeatures assembles the feature matrix for ids on behalf of
// replica r: rows owned by r are copied locally, foreign rows travel in
// one batched message per owning peer. Row order follows ids exactly,
// so the result is bit-identical to gathering from the global feature
// matrix.
func (h *HaloExchange) GatherFeatures(r int, ids []graph.NodeID) (*tensor.Matrix, error) {
	rt, err := h.route(r, ids)
	if err != nil {
		return nil, err
	}
	out := tensor.New(len(ids), h.featDim)
	own, at := rt.group(r)
	if err := h.servers[r].Rows(own, at, out.Data); err != nil {
		return nil, fmt.Errorf("ddp: replica %d reading %d own rows: %w", r, len(own), err)
	}
	if err := h.callPeers(r, rt, out); err != nil {
		return nil, err
	}
	return out, nil
}

// total sums the counters; h.mu must be held.
func (h *HaloExchange) total() HaloStats {
	var t HaloStats
	for r, row := range h.peers {
		t.LocalRows += h.local[r]
		for _, c := range row {
			t.RemoteRows += c.Rows
			t.RemoteBytes += c.Bytes
			t.WireBytes += c.WireBytes
			t.Messages += c.Messages
		}
	}
	return t
}

// Snapshot returns the traffic accumulated since the previous Snapshot
// call (or since construction, for the first call) and advances the
// snapshot mark. The cumulative counters Summary reports are untouched,
// so run totals and interval curves (e.g. per-epoch traffic) can be read
// from the same exchange.
func (h *HaloExchange) Snapshot() HaloStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := h.total()
	delta := total
	delta.Sub(h.lastSnap)
	h.lastSnap = total
	return delta
}

// Summary returns the cumulative traffic: the totals, and the non-zero
// edges of the directed traffic matrix in (From, To) order. The Rows of
// the edges sum to RemoteRows: every remote row travels exactly one edge.
func (h *HaloExchange) Summary() ExchangeStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := ExchangeStats{Transport: h.tr.Name(), HaloStats: h.total()}
	for from, row := range h.peers {
		for to, c := range row {
			if c != (PeerCounts{}) {
				out.Peers = append(out.Peers, PeerTraffic{From: from, To: to, PeerCounts: c})
			}
		}
	}
	return out
}
