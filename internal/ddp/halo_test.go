package ddp

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"argo/internal/graph"
)

// fakeServer serves the nodes v with v%n == r: feature rows are the
// first dim of [v, 10v, -v], labels are v mod labelMod.
type fakeServer struct{ r, n, dim, labelMod int }

func (f fakeServer) Rows(ids []graph.NodeID, at []int32, dst []float32) error {
	for i, v := range ids {
		if int(v)%f.n != f.r {
			return fmt.Errorf("replica %d asked for foreign node %d", f.r, v)
		}
		if at != nil {
			i = int(at[i])
		}
		copy(dst[i*f.dim:(i+1)*f.dim], []float32{float32(v), float32(10 * v), float32(-v)})
	}
	return nil
}

func (f fakeServer) Labels(ids []graph.NodeID, at []int32, dst []int32) error {
	for i, v := range ids {
		if int(v)%f.n != f.r {
			return fmt.Errorf("replica %d asked for foreign label %d", f.r, v)
		}
		if at != nil {
			i = int(at[i])
		}
		dst[i] = v % int32(f.labelMod)
	}
	return nil
}

// fakeExchange owns node v < nodes on replica v%replicas, served by
// fakeServers.
func fakeExchange(t *testing.T, replicas, nodes, dim, labelMod int, opt ExchangeOptions) *HaloExchange {
	t.Helper()
	owner := make([]int32, nodes)
	for v := range owner {
		owner[v] = int32(v % replicas)
	}
	servers := make([]RowServer, replicas)
	for r := range servers {
		servers[r] = fakeServer{r: r, n: replicas, dim: dim, labelMod: labelMod}
	}
	ex, err := NewHaloExchange(dim, owner, servers, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// twoReplicaExchange owns even nodes on replica 0 and odd nodes on
// replica 1; feature rows are [v, 10v], labels are v mod 3.
func twoReplicaExchange(t *testing.T, n int) *HaloExchange {
	return fakeExchange(t, 2, n, 2, 3, ExchangeOptions{})
}

func TestHaloExchangeGatherAndAccounting(t *testing.T) {
	ex := twoReplicaExchange(t, 100)
	ids := []graph.NodeID{0, 1, 2, 3, 4} // 3 even (local to r0), 2 odd (remote)
	m, err := ex.GatherFeatures(0, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ids {
		row := m.Row(i)
		if row[0] != float32(v) || row[1] != float32(10*v) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
	labels, err := ex.TargetLabels(0, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ids {
		if labels[i] != v%3 {
			t.Fatalf("label %d = %d", v, labels[i])
		}
	}
	st := ex.Stats()[0]
	// Features: 3 local + 2 remote (2 floats each); labels: 3 local + 2
	// remote (4 bytes each).
	if st.LocalRows != 6 || st.RemoteRows != 4 {
		t.Fatalf("stats %+v", st)
	}
	if want := int64(2*2*4 + 2*4); st.RemoteBytes != want {
		t.Fatalf("remote bytes %d, want %d", st.RemoteBytes, want)
	}
	if total := ex.TotalStats(); total != st {
		t.Fatalf("total %+v != only replica's stats %+v", total, st)
	}
}

func TestHaloExchangeErrors(t *testing.T) {
	ex := twoReplicaExchange(t, 10)
	if _, err := ex.GatherFeatures(0, []graph.NodeID{50}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := ex.GatherFeatures(7, []graph.NodeID{0}); err == nil {
		t.Fatal("bad replica index accepted")
	}
	if _, err := ex.TargetLabels(-1, []graph.NodeID{0}); err == nil {
		t.Fatal("negative replica index accepted")
	}
	// A peer may ask a replica only about nodes the owner table gives it,
	// whatever the message kind; the refusal names the replica and the node.
	for _, req := range []*Request{
		{From: 1, Kind: MsgFeatures, IDs: []graph.NodeID{2, 3}},
		{From: 1, Kind: MsgLabels, IDs: []graph.NodeID{10}},
	} {
		if _, err := ex.handle(0, req); err == nil || !strings.Contains(err.Error(), "replica 0") ||
			!strings.Contains(err.Error(), fmt.Sprintf("node %d", req.IDs[len(req.IDs)-1])) {
			t.Fatalf("%s request for a foreign node: %v", req.Kind, err)
		}
	}
	if _, err := NewHaloExchange(2, []int32{0}, nil, ExchangeOptions{}); err == nil {
		t.Fatal("zero replicas accepted")
	}
	if _, err := NewHaloExchange(2, nil, make([]RowServer, 2), ExchangeOptions{}); err == nil {
		t.Fatal("nil owner accepted")
	}
	if _, err := NewHaloExchange(2, []int32{0, 2}, make([]RowServer, 2), ExchangeOptions{}); err == nil {
		t.Fatal("owner table naming replica 2 of 2 accepted")
	}
}

// The exchange is called concurrently by every replica each iteration;
// the counters must stay exact under contention (this test is the race
// detector's target too).
func TestHaloExchangeConcurrent(t *testing.T) {
	ex := twoReplicaExchange(t, 1000)
	ids := make([]graph.NodeID, 100)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	var wg sync.WaitGroup
	const iters = 20
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := ex.GatherFeatures(r, ids); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	total := ex.TotalStats()
	if got, want := total.LocalRows+total.RemoteRows, int64(2*iters*len(ids)); got != want {
		t.Fatalf("counted %d rows, want %d", got, want)
	}
	if total.RemoteRows != int64(iters*len(ids)) {
		t.Fatalf("remote rows %d, want %d (each replica owns half)", total.RemoteRows, iters*len(ids))
	}
}
