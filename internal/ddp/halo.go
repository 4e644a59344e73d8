package ddp

// HaloExchange was the feature-row exchange between the replicas of a
// sharded run.
//
// Deprecated: every replica reads the one feature table a shard set
// loads into, so nothing builds an exchange. The type stays only because the repo benchmark's
// benchmark/train.go names it; its methods are safe on a nil pointer
// and report nothing.
type HaloExchange struct{}

// Close does nothing.
func (*HaloExchange) Close() error { return nil }

// Snapshot reports no traffic.
func (*HaloExchange) Snapshot() HaloStats { return HaloStats{} }

// HaloStats was the exchange's traffic count.
//
// Deprecated: nothing moves between replicas, so every field reads 0.
// It keeps only the fields the repo benchmark's benchmark/train.go
// reads.
type HaloStats struct {
	RemoteRows int64
	WireBytes  int64
	Messages   int64
	GradRows   int64
}
