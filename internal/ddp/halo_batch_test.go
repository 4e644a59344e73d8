package ddp

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"argo/internal/graph"
	"argo/internal/tensor"
	"argo/internal/tensor/half"
)

// modExchange owns node v on replica v%n; features are [v, 10v, -v],
// labels v%7.
func modExchange(t *testing.T, replicas int, tr Transport) *HaloExchange {
	return fakeExchange(t, replicas, 10_000, 3, 7, ExchangeOptions{Transport: tr})
}

// modExchangeWire is modExchange with an explicit wire dtype. The served
// values ([v, 10v, -v] for the small ids tests use, labels v%7) are
// fp16-exact, so an fp16 wire is lossless over them — mirroring the real
// negotiation, which only enables the fp16 wire over fp16 stores.
func modExchangeWire(t *testing.T, replicas int, tr Transport, dt graph.FeatDtype) *HaloExchange {
	return fakeExchange(t, replicas, 10_000, 3, 7, ExchangeOptions{Transport: tr, WireDtype: dt})
}

// The fp16 wire must gather bit-identically to the fp32 wire (the
// served values are fp16-exact), move measurably fewer wire bytes, and
// quantise gradients identically on every transport.
func TestHaloExchangeF16Wire(t *testing.T) {
	ids := []graph.NodeID{5, 0, 17, 3, 8, 100, 41}
	ref := modExchange(t, 3, nil)
	defer ref.Close()
	want, err := ref.GatherFeatures(0, ids)
	if err != nil {
		t.Fatal(err)
	}
	refWire := ref.Stats()[0].WireBytes
	for _, name := range []string{"inproc", "tcp"} {
		t.Run(name, func(t *testing.T) {
			tr, err := NewTransport(name)
			if err != nil {
				t.Fatal(err)
			}
			ex := modExchangeWire(t, 3, tr, graph.DtypeF16)
			defer ex.Close()
			if ex.wireDtype != graph.DtypeF16 {
				t.Fatalf("wire dtype %v", ex.wireDtype)
			}
			got, err := ex.GatherFeatures(0, ids)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("fp16 wire gather differs from fp32 at %d: %v vs %v", i, got.Data[i], want.Data[i])
				}
			}
			st := ex.Stats()[0]
			if st.RemoteBytes != ref.Stats()[0].RemoteBytes {
				t.Fatalf("logical bytes changed with wire dtype: %d vs %d", st.RemoteBytes, ref.Stats()[0].RemoteBytes)
			}
			if st.WireBytes >= refWire {
				t.Fatalf("fp16 wire bytes %d not below fp32's %d", st.WireBytes, refWire)
			}

			// Gradients quantise on every path: non-fp16-exact values round
			// to nearest-even, out-of-range magnitudes saturate to ±65504 —
			// for the local node 0 exactly as for the remote node 1.
			g := tensor.New(2, 3)
			copy(g.Row(0), []float32{1.0 / 3.0, 1e6, -1e9}) // node 0, local to replica 0
			copy(g.Row(1), []float32{1.0 / 3.0, 1e6, -1e9}) // node 1, owned by replica 1
			if err := ex.ScatterGradients(0, []graph.NodeID{0, 1}, g); err != nil {
				t.Fatal(err)
			}
			wantRow := []float32{half.Round(1.0 / 3.0), 65504, -65504}
			for _, r := range []int{0, 1} {
				ids, out, err := ex.CollectGradients(r)
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) != 1 || ids[0] != graph.NodeID(r) {
					t.Fatalf("replica %d collected %v", r, ids)
				}
				for j, w := range wantRow {
					if math.Float32bits(out.Row(0)[j]) != math.Float32bits(w) {
						t.Fatalf("replica %d grad[%d] = %v, want %v", r, j, out.Row(0)[j], w)
					}
				}
			}
		})
	}
}

// One gather sends at most one message per foreign peer, regardless of
// how many rows each peer owns — the batching contract.
func TestHaloExchangeBatchesPerPeer(t *testing.T) {
	ex := modExchange(t, 3, nil)
	defer ex.Close()
	ids := []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11} // 4 per owner
	m, err := ex.GatherFeatures(0, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ids {
		if row := m.Row(i); row[0] != float32(v) || row[1] != float32(10*v) || row[2] != float32(-v) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
	st := ex.Stats()[0]
	if st.LocalRows != 4 || st.RemoteRows != 8 {
		t.Fatalf("stats %+v", st)
	}
	if st.Messages != 2 {
		t.Fatalf("%d messages for a 2-peer gather (want one per foreign peer)", st.Messages)
	}
	if _, err := ex.TargetLabels(0, ids); err != nil {
		t.Fatal(err)
	}
	if st = ex.Stats()[0]; st.Messages != 4 {
		t.Fatalf("%d messages after labels gather, want 4", st.Messages)
	}
	peers := ex.PeerTraffic()
	if len(peers) != 2 {
		t.Fatalf("peer traffic %v", peers)
	}
	// Wire bytes per peer: the features round-trip is a 34-byte request
	// (4 prefix + 14 header + 4 ids) plus a 62-byte response (4 + 10 +
	// 12 fp32 values); the labels round-trip is 34 + 30.
	const wirePerPeer = (34 + 62) + (34 + 30)
	for i, want := range []PeerTraffic{
		{From: 0, To: 1, PeerCounts: PeerCounts{Rows: 8, Bytes: 4*3*4 + 4*4, WireBytes: wirePerPeer, Messages: 2}},
		{From: 0, To: 2, PeerCounts: PeerCounts{Rows: 8, Bytes: 4*3*4 + 4*4, WireBytes: wirePerPeer, Messages: 2}},
	} {
		if peers[i] != want {
			t.Fatalf("peer %d = %+v, want %+v", i, peers[i], want)
		}
	}
}

// The identical exchange over loopback TCP must produce bit-identical
// matrices, labels, and traffic counters as the in-process transport.
func TestHaloExchangeTCPMatchesInproc(t *testing.T) {
	ids := []graph.NodeID{5, 0, 17, 3, 3, 8, 100, 41}
	inproc := modExchange(t, 3, nil)
	defer inproc.Close()
	tcp := modExchange(t, 3, NewTCPTransport())
	defer tcp.Close()
	for r := 0; r < 3; r++ {
		a, err := inproc.GatherFeatures(r, ids)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tcp.GatherFeatures(r, ids)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Data {
			if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
				t.Fatalf("replica %d: matrices differ at %d", r, i)
			}
		}
		la, err := inproc.TargetLabels(r, ids)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := tcp.TargetLabels(r, ids)
		if err != nil {
			t.Fatal(err)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("replica %d: labels differ at %d", r, i)
			}
		}
	}
	if a, b := inproc.TotalStats(), tcp.TotalStats(); a != b {
		t.Fatalf("traffic diverged between transports: %+v vs %+v", a, b)
	}
	ap, bp := inproc.PeerTraffic(), tcp.PeerTraffic()
	if len(ap) != len(bp) {
		t.Fatalf("peer rows %d vs %d", len(ap), len(bp))
	}
	for i := range ap {
		if ap[i] != bp[i] {
			t.Fatalf("peer traffic %d: %+v vs %+v", i, ap[i], bp[i])
		}
	}
	if a, b := inproc.Summary().Transport, tcp.Summary().Transport; a != "inproc" || b != "tcp" {
		t.Fatalf("transport names %q/%q", a, b)
	}
}

// The reverse path: gradients scattered from every replica accumulate
// at the rows' owners, identically on both transports, and collecting
// drains the buffer deterministically (ascending node order).
func TestGradientExchange(t *testing.T) {
	for _, name := range []string{"inproc", "tcp"} {
		t.Run(name, func(t *testing.T) {
			tr, err := NewTransport(name)
			if err != nil {
				t.Fatal(err)
			}
			ex := modExchange(t, 2, tr)
			defer ex.Close()
			// Replica 0 contributes to nodes {0,1,2,3}, replica 1 to
			// {1,2}: node 1 and 2 accumulate two contributions each.
			scatter := func(r int, ids []graph.NodeID, scale float32) {
				g := tensor.New(len(ids), 3)
				for i, v := range ids {
					g.Row(i)[0] = scale * float32(v)
					g.Row(i)[1] = scale
					g.Row(i)[2] = -scale
				}
				if err := ex.ScatterGradients(r, ids, g); err != nil {
					t.Fatal(err)
				}
			}
			scatter(0, []graph.NodeID{0, 1, 2, 3}, 1)
			scatter(1, []graph.NodeID{1, 2}, 2)

			ids0, g0, err := ex.CollectGradients(0)
			if err != nil {
				t.Fatal(err)
			}
			if want := []graph.NodeID{0, 2}; len(ids0) != 2 || ids0[0] != want[0] || ids0[1] != want[1] {
				t.Fatalf("replica 0 owns gradients for %v, want %v", ids0, want)
			}
			// Node 2: 1·2 from replica 0 plus 2·2 from replica 1.
			if g0.Row(1)[0] != 2+4 || g0.Row(1)[1] != 1+2 || g0.Row(1)[2] != -1-2 {
				t.Fatalf("node 2 accumulated %v", g0.Row(1))
			}
			if g0.Row(0)[0] != 0 || g0.Row(0)[1] != 1 {
				t.Fatalf("node 0 accumulated %v", g0.Row(0))
			}
			ids1, g1, err := ex.CollectGradients(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids1) != 2 || ids1[0] != 1 || ids1[1] != 3 {
				t.Fatalf("replica 1 owns gradients for %v", ids1)
			}
			if g1.Row(0)[0] != 1+2 || g1.Row(0)[1] != 1+2 {
				t.Fatalf("node 1 accumulated %v", g1.Row(0))
			}
			// Collect drains: a second collect is empty.
			if ids, g, err := ex.CollectGradients(0); err != nil || ids != nil || g != nil {
				t.Fatalf("second collect returned %v %v %v", ids, g, err)
			}

			total := ex.TotalStats()
			// Replica 0 sent 2 foreign rows (1,3), replica 1 sent 1 (2).
			if total.GradRows != 3 {
				t.Fatalf("grad rows %d, want 3", total.GradRows)
			}
			if total.RemoteRows != 0 {
				t.Fatalf("gradient scatter counted as remote feature rows: %+v", total)
			}
			var peerRows int64
			for _, p := range ex.PeerTraffic() {
				peerRows += p.Rows
			}
			if peerRows != total.GradRows {
				t.Fatalf("peer matrix rows %d, want %d (every routed row travels one edge)", peerRows, total.GradRows)
			}

			// Shape errors are rejected.
			if err := ex.ScatterGradients(0, []graph.NodeID{1}, tensor.New(2, 3)); err == nil {
				t.Fatal("row-count mismatch accepted")
			}
			if err := ex.ScatterGradients(0, []graph.NodeID{1}, tensor.New(1, 2)); err == nil {
				t.Fatal("width mismatch accepted")
			}
			if err := ex.ScatterGradients(7, nil, tensor.New(0, 3)); err == nil {
				t.Fatal("bad replica accepted")
			}
		})
	}
}

// Accumulated gradients must be bit-reproducible no matter how message
// arrival interleaves: per-source partial sums are reduced in replica
// order at collect time, so concurrent scatters from many replicas
// always sum identically.
func TestGradientAccumulationOrderIndependent(t *testing.T) {
	run := func() *tensor.Matrix {
		ex := modExchange(t, 4, NewTCPTransport())
		defer ex.Close()
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				// Every replica contributes irrational-ish floats to the
				// same owner-0 nodes, so summation order is observable.
				ids := []graph.NodeID{0, 4, 8}
				g := tensor.New(len(ids), 3)
				for i := range ids {
					for j := 0; j < 3; j++ {
						g.Row(i)[j] = float32(math.Sqrt(float64(r+2))) * float32(i+j+1) * 0.1
					}
				}
				if err := ex.ScatterGradients(r, ids, g); err != nil {
					t.Error(err)
				}
			}(r)
		}
		wg.Wait()
		_, out, err := ex.CollectGradients(0)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run()
	for trial := 0; trial < 5; trial++ {
		got := run()
		for i := range ref.Data {
			if math.Float32bits(ref.Data[i]) != math.Float32bits(got.Data[i]) {
				t.Fatalf("trial %d: accumulated gradients not bit-reproducible at %d (%v vs %v)",
					trial, i, ref.Data[i], got.Data[i])
			}
		}
	}
}

// Summary assembles totals + deterministically ordered peers.
func TestExchangeSummary(t *testing.T) {
	ex := modExchange(t, 3, nil)
	defer ex.Close()
	ids := []graph.NodeID{0, 1, 2}
	for r := 2; r >= 0; r-- { // call order must not affect peer order
		if _, err := ex.GatherFeatures(r, ids); err != nil {
			t.Fatal(err)
		}
	}
	s := ex.Summary()
	if s.Transport != "inproc" {
		t.Fatalf("transport %q", s.Transport)
	}
	if s.LocalRows != 3 || s.RemoteRows != 6 || s.Messages != 6 {
		t.Fatalf("summary %+v", s)
	}
	if len(s.Peers) != 6 {
		t.Fatalf("%d peer edges, want 6", len(s.Peers))
	}
	for i := 1; i < len(s.Peers); i++ {
		a, b := s.Peers[i-1], s.Peers[i]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("peers not in deterministic order: %+v before %+v", a, b)
		}
	}
}

// Add is how a trainer carries traffic across re-launches: totals sum,
// an edge present on both sides merges, the result stays in (From, To)
// order whatever order the operands were in, the later transport wins,
// and neither operand's peer slice is written to.
func TestExchangeStatsAdd(t *testing.T) {
	edge := func(from, to int, rows int64) PeerTraffic {
		return PeerTraffic{From: from, To: to, PeerCounts: PeerCounts{Rows: rows, Bytes: 4 * rows, WireBytes: 5 * rows, Messages: 1}}
	}
	a := ExchangeStats{Transport: "inproc", LocalRows: 10, RemoteRows: 3, RemoteBytes: 12, WireBytes: 15, Messages: 2,
		Peers: []PeerTraffic{edge(0, 1, 1), edge(1, 0, 2)}}
	b := ExchangeStats{Transport: "tcp", LocalRows: 1, RemoteRows: 8, RemoteBytes: 32, WireBytes: 40, Messages: 2, GradRows: 4,
		Peers: []PeerTraffic{edge(2, 0, 5), edge(0, 1, 7)}}
	sum := a
	sum.Add(b)
	want := ExchangeStats{Transport: "tcp", LocalRows: 11, RemoteRows: 11, RemoteBytes: 44, WireBytes: 55, Messages: 4, GradRows: 4,
		Peers: []PeerTraffic{{From: 0, To: 1, PeerCounts: PeerCounts{Rows: 8, Bytes: 32, WireBytes: 40, Messages: 2}}, edge(1, 0, 2), edge(2, 0, 5)}}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("a + b =\n%+v\nwant\n%+v", sum, want)
	}
	if a.Peers[0] != edge(0, 1, 1) || b.Peers[1] != edge(0, 1, 7) {
		t.Fatalf("Add wrote to an operand's peers: %+v / %+v", a.Peers, b.Peers)
	}
	if got := sum.Totals(); got != (HaloStats{LocalRows: 11, RemoteRows: 11, RemoteBytes: 44, WireBytes: 55, Messages: 4, GradRows: 4}) {
		t.Fatalf("Totals() = %+v", got)
	}
	var zero ExchangeStats
	zero.Add(ExchangeStats{})
	if zero.Peers != nil || zero.Transport != "" {
		t.Fatalf("adding nothing to nothing gave %+v", zero)
	}
}
