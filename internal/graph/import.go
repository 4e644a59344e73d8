package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"argo/internal/tensor"
)

// ImportOptions configures ImportEdgeList — the real-dataset on-ramp
// that turns an edge-list/CSV dump into a trainable .argograph dataset
// without any external dependency.
type ImportOptions struct {
	// Name labels the imported dataset (spec name; default "imported").
	Name string
	// Directed keeps arcs as listed. The default symmetrises: every
	// edge u–v becomes the arcs u→v and v→u, matching the synthetic
	// generator's undirected convention.
	Directed bool
	// FeatDim sizes the synthesised feature rows when no feature file
	// is supplied (default 16; ignored when Features is non-nil).
	FeatDim int
	// NumClasses sizes the synthesised label space when no label file
	// is supplied (default 4; ignored when Labels is non-nil).
	NumClasses int
	// TrainFrac is the training split fraction (default 0.5); val and
	// test each take half the remainder.
	TrainFrac float64
	// Seed drives label/feature synthesis and the split shuffle.
	Seed int64
	// Hidden records the model hidden width in the spec (default 32).
	Hidden int
	// Labels, when non-nil, reads a "node,label" CSV covering every
	// node (see ParseLabelsCSV).
	Labels io.Reader
	// Features, when non-nil, reads a "node,f0,f1,..." CSV covering
	// every node (see ParseFeaturesCSV).
	Features io.Reader
}

// maxImportNodes bounds the node space an imported file may claim. The
// node space is dense, [0, maxID], so the bound only caps the damage of a
// stray huge id: one line naming an id near it still allocates 2 GiB of
// RowPtr alone, before labels and features.
const maxImportNodes = 1 << 28

// importLines iterates the meaningful lines of an edge-list/CSV file:
// blank lines and #/%-prefixed comments are skipped, fields split on
// commas and/or whitespace. A first data line that does not start with
// an integer is treated as a CSV header and skipped.
func importLines(r io.Reader, fn func(lineNo int, fields []string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	sawData := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.FieldsFunc(line, func(r rune) bool {
			return r == ',' || r == ';' || r == ' ' || r == '\t'
		})
		if len(fields) == 0 {
			continue
		}
		if !sawData {
			if _, err := strconv.ParseInt(fields[0], 10, 64); err != nil {
				continue // header row
			}
			sawData = true
		}
		if err := fn(lineNo, fields); err != nil {
			return err
		}
	}
	return sc.Err()
}

// parseNode parses a node id field with the import bounds applied.
func parseNode(field string, lineNo int) (int64, error) {
	v, err := strconv.ParseInt(field, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("graph: line %d: node id %q is not an integer", lineNo, field)
	}
	if v < 0 {
		return 0, fmt.Errorf("graph: line %d: negative node id %d", lineNo, v)
	}
	if v >= maxImportNodes {
		return 0, fmt.Errorf("graph: line %d: node id %d exceeds the import limit (%d)", lineNo, v, maxImportNodes)
	}
	return v, nil
}

// ImportEdgeList reads an edge list (two integer node ids per line,
// comma- and/or whitespace-separated, extra fields such as weights
// ignored; #/% comments and a CSV header row skipped) and builds a
// complete, validated Dataset over it. Node ids need not be contiguous:
// the node space is [0, maxID]. Self-loops and duplicate edges are
// dropped, and unless opt.Directed is set every edge is symmetrised.
//
// Labels and features come from the optional CSV readers in opt; when
// absent they are synthesised deterministically from opt.Seed (uniform
// labels over NumClasses, class-centroid features — the same family the
// synthetic generator uses), so any raw edge list becomes a runnable
// benchmark workload.
func ImportEdgeList(r io.Reader, opt ImportOptions) (*Dataset, error) {
	if opt.Name == "" {
		opt.Name = "imported"
	}
	if opt.FeatDim < 1 {
		opt.FeatDim = 16
	}
	if opt.NumClasses < 2 {
		opt.NumClasses = 4
	}
	if opt.TrainFrac <= 0 || opt.TrainFrac >= 1 {
		opt.TrainFrac = 0.5
	}
	if opt.Hidden < 1 {
		opt.Hidden = 32
	}

	type arc struct{ u, v int64 }
	var arcs []arc
	maxID := int64(-1)
	err := importLines(r, func(lineNo int, fields []string) error {
		if len(fields) < 2 {
			return fmt.Errorf("graph: line %d: want at least two fields (src dst), got %d", lineNo, len(fields))
		}
		u, err := parseNode(fields[0], lineNo)
		if err != nil {
			return err
		}
		v, err := parseNode(fields[1], lineNo)
		if err != nil {
			return err
		}
		if u == v {
			return nil // drop self-loops
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		arcs = append(arcs, arc{u, v})
		if !opt.Directed {
			arcs = append(arcs, arc{v, u})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if maxID < 0 {
		return nil, fmt.Errorf("graph: edge list contains no edges")
	}
	n := int(maxID + 1)

	// Dedup and build the CSR: count per row, fill, then sort+compact
	// each adjacency.
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].u != arcs[j].u {
			return arcs[i].u < arcs[j].u
		}
		return arcs[i].v < arcs[j].v
	})
	g := &CSR{NumNodes: n, RowPtr: make([]int64, n+1)}
	g.Col = make([]NodeID, 0, len(arcs))
	for i, a := range arcs {
		if i > 0 && arcs[i-1] == a {
			continue
		}
		g.Col = append(g.Col, NodeID(a.v))
		g.RowPtr[a.u+1]++
	}
	for v := 0; v < n; v++ {
		g.RowPtr[v+1] += g.RowPtr[v]
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: imported topology invalid: %w", err)
	}

	rng := rand.New(rand.NewSource(opt.Seed + 1))
	var labels []int32
	numClasses := opt.NumClasses
	if opt.Labels != nil {
		labels, numClasses, err = ParseLabelsCSV(opt.Labels, n)
		if err != nil {
			return nil, err
		}
	} else {
		labels = make([]int32, n)
		for v := range labels {
			labels[v] = int32(rng.Intn(numClasses))
		}
	}
	var feats *tensor.Matrix
	if opt.Features != nil {
		feats, err = ParseFeaturesCSV(opt.Features, n)
		if err != nil {
			return nil, err
		}
	} else {
		feats = communityFeatures(rng, labels, numClasses, opt.FeatDim, 0.8)
	}
	train, val, test := split(rng, n, opt.TrainFrac)

	// The spec records undirected edges for symmetrised imports (each
	// edge stored as two arcs) and raw arcs for directed ones.
	specEdges := g.NumEdges()
	if !opt.Directed {
		specEdges /= 2
	}
	ds := &Dataset{
		Spec: DatasetSpec{
			Name:          opt.Name,
			ScaledNodes:   n,
			ScaledEdges:   specEdges,
			ScaledF0:      feats.Cols,
			ScaledHidden:  opt.Hidden,
			ScaledClasses: numClasses,
			TrainFrac:     opt.TrainFrac,
		},
		Graph:      g,
		Features:   feats,
		Labels:     labels,
		NumClasses: numClasses,
		TrainIdx:   train,
		ValIdx:     val,
		TestIdx:    test,
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("graph: imported dataset invalid: %w", err)
	}
	return ds, nil
}

// ParseLabelsCSV reads "node,label" lines (comments/header skipped) and
// returns a dense label vector over n nodes plus the class count
// (max label + 1). Every node must be covered exactly once.
func ParseLabelsCSV(r io.Reader, n int) ([]int32, int, error) {
	labels := make([]int32, n)
	seen := make([]bool, n)
	covered := 0
	maxLabel := int32(-1)
	err := importLines(r, func(lineNo int, fields []string) error {
		if len(fields) < 2 {
			return fmt.Errorf("graph: line %d: want node,label", lineNo)
		}
		v, err := parseNode(fields[0], lineNo)
		if err != nil {
			return err
		}
		if v >= int64(n) {
			return fmt.Errorf("graph: line %d: label for node %d outside the graph's %d nodes", lineNo, v, n)
		}
		lab, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil || lab < 0 {
			return fmt.Errorf("graph: line %d: label %q is not a non-negative integer", lineNo, fields[1])
		}
		if seen[v] {
			return fmt.Errorf("graph: line %d: node %d labelled twice", lineNo, v)
		}
		seen[v] = true
		covered++
		labels[v] = int32(lab)
		if int32(lab) > maxLabel {
			maxLabel = int32(lab)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if covered != n {
		return nil, 0, fmt.Errorf("graph: label file covers %d of %d nodes", covered, n)
	}
	return labels, int(maxLabel) + 1, nil
}

// ParseFeaturesCSV reads "node,f0,f1,..." lines (comments/header
// skipped) and returns the dense n×F feature matrix. Every node must be
// covered exactly once, every row must have the same width, and every
// value must be finite.
func ParseFeaturesCSV(r io.Reader, n int) (*tensor.Matrix, error) {
	var feats *tensor.Matrix
	seen := make([]bool, n)
	covered := 0
	err := importLines(r, func(lineNo int, fields []string) error {
		if len(fields) < 2 {
			return fmt.Errorf("graph: line %d: want node,f0,...", lineNo)
		}
		v, err := parseNode(fields[0], lineNo)
		if err != nil {
			return err
		}
		if v >= int64(n) {
			return fmt.Errorf("graph: line %d: features for node %d outside the graph's %d nodes", lineNo, v, n)
		}
		width := len(fields) - 1
		if feats == nil {
			feats = tensor.New(n, width)
		} else if width != feats.Cols {
			return fmt.Errorf("graph: line %d: %d feature values, earlier rows had %d", lineNo, width, feats.Cols)
		}
		if seen[v] {
			return fmt.Errorf("graph: line %d: node %d has two feature rows", lineNo, v)
		}
		seen[v] = true
		covered++
		row := feats.Row(int(v))
		for j, f := range fields[1:] {
			x, err := strconv.ParseFloat(f, 32)
			if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("graph: line %d: feature value %q is not a finite number", lineNo, f)
			}
			row[j] = float32(x)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if covered != n {
		return nil, fmt.Errorf("graph: feature file covers %d of %d nodes", covered, n)
	}
	return feats, nil
}
