package ddp

import "testing"

// TestHaloExchangeSnapshot: the deprecated exchange the repo benchmark
// still names reports no traffic and closes cleanly, also through the
// nil pointer engine.NewShardSourcesOpts hands back.
func TestHaloExchangeSnapshot(t *testing.T) {
	for _, ex := range []*HaloExchange{nil, {}} {
		if st := ex.Snapshot(); st != (HaloStats{}) {
			t.Fatalf("snapshot of %v: %+v, want zero", ex, st)
		}
		if err := ex.Close(); err != nil {
			t.Fatalf("close of %v: %v", ex, err)
		}
	}
}
