package ddp

import (
	"math"
	"reflect"
	"testing"

	"argo/internal/graph"
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
// served values are fp16-exact) and move measurably fewer wire bytes on
// every transport.
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
	// Wire bytes per peer: the features round-trip is a 30-byte request
	// (4 prefix + 10 header + 4 ids) plus a 62-byte response (4 + 10 +
	// 12 fp32 values); the labels round-trip is 30 + 30.
	const wirePerPeer = (30 + 62) + (30 + 30)
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
	b := ExchangeStats{Transport: "tcp", LocalRows: 1, RemoteRows: 8, RemoteBytes: 32, WireBytes: 40, Messages: 2,
		Peers: []PeerTraffic{edge(2, 0, 5), edge(0, 1, 7)}}
	sum := a
	sum.Add(b)
	want := ExchangeStats{Transport: "tcp", LocalRows: 11, RemoteRows: 11, RemoteBytes: 44, WireBytes: 55, Messages: 4,
		Peers: []PeerTraffic{{From: 0, To: 1, PeerCounts: PeerCounts{Rows: 8, Bytes: 32, WireBytes: 40, Messages: 2}}, edge(1, 0, 2), edge(2, 0, 5)}}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("a + b =\n%+v\nwant\n%+v", sum, want)
	}
	if a.Peers[0] != edge(0, 1, 1) || b.Peers[1] != edge(0, 1, 7) {
		t.Fatalf("Add wrote to an operand's peers: %+v / %+v", a.Peers, b.Peers)
	}
	if got := sum.Totals(); got != (HaloStats{LocalRows: 11, RemoteRows: 11, RemoteBytes: 44, WireBytes: 55, Messages: 4}) {
		t.Fatalf("Totals() = %+v", got)
	}
	var zero ExchangeStats
	zero.Add(ExchangeStats{})
	if zero.Peers != nil || zero.Transport != "" {
		t.Fatalf("adding nothing to nothing gave %+v", zero)
	}
}
