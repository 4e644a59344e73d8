package ddp

import (
	"testing"

	"argo/internal/graph"
)

// TestHaloStatsSub: Sub inverts Add field by field.
func TestHaloStatsSub(t *testing.T) {
	a := HaloStats{LocalRows: 10, RemoteRows: 4, RemoteBytes: 320, WireBytes: 400, Messages: 3}
	b := HaloStats{LocalRows: 3, RemoteRows: 1, RemoteBytes: 80, WireBytes: 96, Messages: 1}
	sum := a
	sum.Add(b)
	sum.Sub(b)
	if sum != a {
		t.Fatalf("Add then Sub is not identity: %+v vs %+v", sum, a)
	}
}

// TestHaloExchangeSnapshot: Snapshot returns the delta since the last
// call while the cumulative counters keep growing untouched.
func TestHaloExchangeSnapshot(t *testing.T) {
	ex := twoReplicaExchange(t, 100)
	defer ex.Close()

	ids := []graph.NodeID{0, 1, 2, 3, 4}
	if _, err := ex.GatherFeatures(0, ids); err != nil {
		t.Fatal(err)
	}
	afterFirst := ex.Summary().HaloStats
	first := ex.Snapshot()
	if first != afterFirst {
		t.Fatalf("first snapshot %+v should equal the cumulative total %+v", first, afterFirst)
	}

	// A quiet interval snapshots as zero.
	if quiet := ex.Snapshot(); quiet != (HaloStats{}) {
		t.Fatalf("idle interval snapshot is non-zero: %+v", quiet)
	}

	// More traffic: the next snapshot carries only the new interval.
	if _, err := ex.GatherFeatures(1, ids); err != nil {
		t.Fatal(err)
	}
	second := ex.Snapshot()
	want := ex.Summary().HaloStats
	want.Sub(afterFirst)
	if second != want {
		t.Fatalf("interval snapshot %+v, want %+v", second, want)
	}

	// The cumulative view never reset.
	total := ex.Summary().HaloStats
	check := afterFirst
	check.Add(second)
	if total != check {
		t.Fatalf("cumulative total %+v lost history (want %+v)", total, check)
	}
}
