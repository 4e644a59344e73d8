// Package datasets makes the training workload a first-class, loadable
// artifact. It provides a named registry of paper-matched synthetic
// workload profiles — scaled stand-ins for the graphs of the paper's
// Table III — and resolution helpers that turn a registry name or an
// .argograph file path into a materialised graph.Dataset. Together with
// the binary store in internal/graph this lets a graph be generated once
// (cmd/argo-data) and reloaded in milliseconds by every cmd and test
// thereafter.
package datasets

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"argo/internal/graph"
)

// Profile is one registry entry: a human-readable description plus the
// full dataset specification (paper-scale statistics and scaled
// synthetic-instance parameters).
type Profile struct {
	Name        string
	Description string
	Spec        graph.DatasetSpec
}

// registry lists the workload profiles in paper (Table III) order, with
// `tiny` first as the test workload. The *-sim names are the sized-down
// synthetic stand-ins; their Paper stats carry the full-scale numbers of
// Table III that the platform simulator consumes, and their spec names are
// the paper's dataset names, under which Get finds them too.
var registry = []Profile{
	{
		Name:        "tiny",
		Description: "minimal planted-community graph for tests and demos",
		Spec: graph.DatasetSpec{
			Name:        "tiny",
			Paper:       graph.PaperStats{Vertices: 120, Edges: 480, F0: 16, F1: 8, F2: 3},
			ScaledNodes: 120, ScaledEdges: 480,
			ScaledF0: 16, ScaledHidden: 8, ScaledClasses: 3,
			Homophily: 0.7, Exponent: 2.1, TrainFrac: 0.5,
		},
	},
	{
		Name:        "flickr-sim",
		Description: "scaled stand-in for Flickr (89k nodes, 900k edges)",
		Spec: graph.DatasetSpec{
			Name:        "flickr",
			Paper:       graph.PaperStats{Vertices: 89_250, Edges: 899_756, F0: 500, F1: 128, F2: 7},
			ScaledNodes: 1_800, ScaledEdges: 18_000,
			ScaledF0: 64, ScaledHidden: 32, ScaledClasses: 7,
			Homophily: 0.55, Exponent: 2.3, TrainFrac: 0.5,
		},
	},
	{
		Name:        "arxiv-sim",
		Description: "scaled stand-in for ogbn-arxiv (169k nodes, 1.2M edges)",
		Spec: graph.DatasetSpec{
			Name:        "ogbn-arxiv",
			Paper:       graph.PaperStats{Vertices: 169_343, Edges: 1_166_243, F0: 128, F1: 128, F2: 40},
			ScaledNodes: 2_000, ScaledEdges: 26_000,
			ScaledF0: 64, ScaledHidden: 32, ScaledClasses: 10,
			Homophily: 0.65, Exponent: 2.3, TrainFrac: 0.54,
		},
	},
	{
		Name:        "reddit-sim",
		Description: "scaled stand-in for Reddit (233k nodes, 11.6M edges)",
		Spec: graph.DatasetSpec{
			Name:        "reddit",
			Paper:       graph.PaperStats{Vertices: 232_965, Edges: 11_606_919, F0: 602, F1: 128, F2: 41},
			ScaledNodes: 2_400, ScaledEdges: 120_000,
			ScaledF0: 64, ScaledHidden: 32, ScaledClasses: 16,
			Homophily: 0.6, Exponent: 2.0, TrainFrac: 0.66,
		},
	},
	{
		Name:        "products-sim",
		Description: "scaled stand-in for ogbn-products (2.4M nodes, 61.9M edges)",
		Spec: graph.DatasetSpec{
			Name:        "ogbn-products",
			Paper:       graph.PaperStats{Vertices: 2_449_029, Edges: 61_859_140, F0: 100, F1: 128, F2: 47},
			ScaledNodes: 4_000, ScaledEdges: 100_000,
			ScaledF0: 50, ScaledHidden: 32, ScaledClasses: 12,
			Homophily: 0.65, Exponent: 2.1, TrainFrac: 0.1,
		},
	},
	{
		Name:        "papers100m-sim",
		Description: "scaled stand-in for ogbn-papers100M (111M nodes, 1.6B edges)",
		Spec: graph.DatasetSpec{
			Name:        "ogbn-papers100M",
			Paper:       graph.PaperStats{Vertices: 111_059_956, Edges: 1_615_685_872, F0: 128, F1: 128, F2: 172},
			ScaledNodes: 6_000, ScaledEdges: 90_000,
			ScaledF0: 64, ScaledHidden: 32, ScaledClasses: 16,
			Homophily: 0.5, Exponent: 2.2, TrainFrac: 0.012,
		},
	},
}

// Names returns the registered profile names in registry order (tiny
// first, then the paper's Table III order).
func Names() []string {
	out := make([]string, len(registry))
	for i, p := range registry {
		out[i] = p.Name
	}
	return out
}

// Get returns the profile registered under name, matched by the
// profile's own name or by its spec's (the paper's dataset name), so
// "products-sim" and "ogbn-products" are the same profile. A "@xN"
// suffix (the provenance syntax Scale stamps on stored specs) resolves
// to the base profile scaled N×: "arxiv-sim@x16" is arxiv-sim with 16×
// the nodes and edges at the same degree distribution — the knob for
// workloads where frontier size relative to the graph matters (e.g.
// cache-locality benchmarks) without a pre-materialised store.
func Get(name string) (Profile, error) {
	base, factor := splitScale(name)
	for _, p := range registry {
		if p.Name == base || p.Spec.Name == base {
			return p.scaled(factor), nil
		}
	}
	return Profile{}, fmt.Errorf("datasets: unknown profile %q (registered: %s, or their paper names such as ogbn-products; optionally with a @xN scale suffix)",
		name, strings.Join(Names(), ", "))
}

// splitScale parses a trailing "@xN" (N ≥ 2) off a profile name. Names
// without one — including file paths, which fall through Get unchanged —
// return factor 1.
func splitScale(name string) (string, int) {
	i := strings.LastIndex(name, "@x")
	if i < 0 {
		return name, 1
	}
	var factor int
	if _, err := fmt.Sscanf(name[i+2:], "%d", &factor); err != nil || factor < 2 ||
		fmt.Sprintf("%s@x%d", name[:i], factor) != name {
		return name, 1
	}
	return name[:i], factor
}

func (p Profile) scaled(factor int) Profile {
	if factor <= 1 {
		return p
	}
	p.Spec = p.Spec.Scale(factor)
	p.Name = fmt.Sprintf("%s@x%d", p.Name, factor)
	p.Description = fmt.Sprintf("%s, scaled %d×", p.Description, factor)
	return p
}

// Build materialises the named profile's scaled synthetic instance with
// the given seed.
func Build(name string, seed int64) (*graph.Dataset, error) {
	p, err := Get(name)
	if err != nil {
		return nil, err
	}
	return graph.Build(p.Spec, seed)
}

// eagerBelowBytes is the one load-size rule: a store smaller than this
// is decoded and verified in full at open, which costs single-digit
// milliseconds and means a corrupt store fails before it is used; a
// larger one stays lazy, so peak memory follows the sections touched.
const eagerBelowBytes = 32 << 20

// Resolve turns a registry name or an .argograph file path into a
// materialised dataset: names are generated with the given seed, paths
// are loaded from the binary store (the seed is ignored — the stored
// graph is already materialised).
func Resolve(nameOrPath string, seed int64) (*graph.Dataset, error) {
	lz, err := ResolveLazy(nameOrPath, seed)
	if err != nil {
		return nil, err
	}
	defer lz.Close()
	return lz.Dataset()
}

// ErrShardStore reports a store written as one shard of a shard set
// where a single dataset store is expected: it holds one partition's
// local graph, not the dataset.
var ErrShardStore = errors.New("store is one shard of a shard set, not a dataset")

// ResolveLazy turns a registry name or an .argograph path into a
// LazyDataset handle. Names are generated with the given seed and
// wrapped (already materialised); paths are opened through the lazy
// reader, so spec and stats are available immediately and topology-only
// consumers of a large store never pay for feature bytes. A store under
// eagerBelowBytes is materialised and validated before the handle is
// returned. A shard store is refused with ErrShardStore before any
// section is decoded. The caller owns the handle and must Close it.
func ResolveLazy(nameOrPath string, seed int64) (*graph.LazyDataset, error) {
	p, gerr := Get(nameOrPath)
	if gerr == nil {
		d, err := graph.Build(p.Spec, seed)
		if err != nil {
			return nil, err
		}
		return graph.LazyFromDataset(d), nil
	}
	fi, serr := os.Stat(nameOrPath)
	if serr != nil {
		return nil, fmt.Errorf("%w; and no such file: %v", gerr, serr)
	}
	lz, err := graph.OpenLazy(nameOrPath)
	if err != nil {
		return nil, err
	}
	for _, sec := range lz.Sections() {
		if sec.Name == "shardmap" || sec.Name == "manifest" {
			lz.Close()
			return nil, fmt.Errorf("%s: %w (it carries a %s section); rebuild a single store with argo-data gen or argo-data import",
				nameOrPath, ErrShardStore, sec.Name)
		}
	}
	if fi.Size() < eagerBelowBytes {
		if _, err := lz.Dataset(); err != nil {
			lz.Close()
			return nil, err
		}
	}
	return lz, nil
}
