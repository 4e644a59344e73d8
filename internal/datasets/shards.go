package datasets

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"argo/internal/graph"
)

// ParseShardSpec splits a -shards workload spec into its base workload
// and shard count: "tiny#4" means the registry profile tiny split into
// 4 shards; a bare name or path has no inline count (k = 0).
func ParseShardSpec(spec string) (base string, k int, err error) {
	i := strings.LastIndex(spec, "#")
	if i < 0 {
		return spec, 0, nil
	}
	base = spec[:i]
	k, err = strconv.Atoi(spec[i+1:])
	if err != nil || k < 1 {
		return "", 0, fmt.Errorf("datasets: bad shard count in %q (want name#k, e.g. tiny#4)", spec)
	}
	if base == "" {
		return "", 0, fmt.Errorf("datasets: empty workload name in %q", spec)
	}
	return base, k, nil
}

// ResolveShards turns a shard-set spec into an opened graph.ShardSet:
//
//   - "name#k" builds the registry profile with the given seed and
//     shards it in memory with the deterministic greedy partitioner —
//     identical contents to what `argo-data shard -k k` would store;
//   - a path names the manifest-carrying store of a set written by
//     `argo-data shard` (shard 0), opened lazily.
//
// The caller owns the returned set and must Close it.
func ResolveShards(spec string, seed int64) (*graph.ShardSet, error) {
	base, k, err := ParseShardSpec(spec)
	if err != nil {
		return nil, err
	}
	if k > 0 {
		d, berr := Build(base, seed)
		if berr != nil {
			return nil, fmt.Errorf("datasets: %q: %w", spec, berr)
		}
		return graph.ShardSetFromDataset(d, graph.ShardOptions{K: k, Seed: seed})
	}
	if _, serr := os.Stat(spec); serr != nil {
		return nil, fmt.Errorf("datasets: %q is neither name#k nor a shard store path: %v", spec, serr)
	}
	return graph.OpenShardSet(spec)
}
