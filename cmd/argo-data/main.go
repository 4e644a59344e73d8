// Command argo-data manages .argograph binary dataset stores: it
// generates the registry's synthetic workload profiles to disk (at test
// size or scaled up to 1000×), inspects stored graphs lazily, and
// verifies a store's section table, checksums, and structural
// invariants. Generating once and loading thereafter turns dataset setup
// from tens of milliseconds (or much more for bigger profiles) into a
// single fast read shared by argo-train and argo-serve — and with lazy
// loading, metadata and topology reads stay fast no matter how large the
// store.
//
// Usage:
//
//	argo-data ls
//	argo-data gen -dataset arxiv-sim [-seed 1] [-scale 100] -o arxiv.argograph
//	argo-data gen -dataset tiny -nodes 5000 -edges 40000 -feat 32 -o big-tiny.argograph
//	argo-data import edges.csv -labels labels.csv -o mygraph.argograph
//	argo-data inspect arxiv.argograph
//	argo-data verify arxiv.argograph
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"argo/internal/datasets"
	"argo/internal/graph"
)

func usage() {
	fmt.Fprintf(os.Stderr, `argo-data manages .argograph binary dataset stores.

Subcommands:
  ls                         list registered workload profiles
  gen -dataset <name> -o <file> [-seed N] [-scale N] [-nodes N] [-edges N] [-feat N]
                             generate a profile (optionally scaled) and save it
  import <edges-file> -o <file> [-labels l.csv] [-feats f.csv] [-name N]
         [-directed] [-feat N] [-classes N] [-train-frac F] [-seed N]
                             convert an edge-list/CSV dump into an .argograph store
  inspect <file>             print a stored dataset's statistics and section layout
                             (lazy: topology and feature bytes are never read)
  verify <file>              check section table, checksums, and graph invariants
                             (fp16 stores: every value finite and fp16-exact)
  convert <file> -feat-dtype fp32|fp16 [-o <out>]
                             re-encode the store's features in the given dtype
                             (fp16 halves the features section; idempotent)

Registered profiles: %s
`, strings.Join(datasets.Names(), ", "))
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "ls":
		err = runLs()
	case "gen":
		err = runGen(os.Args[2:])
	case "import":
		err = runImport(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	case "convert":
		err = runConvert(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "argo-data: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "argo-data: %v\n", err)
		os.Exit(1)
	}
}

func runLs() error {
	fmt.Printf("%-15s %-10s %-10s %-8s %-8s %s\n", "PROFILE", "NODES", "EDGES*", "FEATS", "CLASSES", "DESCRIPTION")
	for _, name := range datasets.Names() {
		p, err := datasets.Get(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-15s %-10d %-10d %-8d %-8d %s\n",
			p.Name, p.Spec.ScaledNodes, p.Spec.ScaledEdges, p.Spec.ScaledF0, p.Spec.ScaledClasses, p.Description)
	}
	fmt.Println("* undirected edge target; the stored arc count is near twice this (both directions, after dedup)")
	return nil
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("dataset", "", "registry profile to generate (see argo-data ls)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("o", "", "output .argograph path")
	scale := fs.Int("scale", 1, "multiply the profile's node and edge counts by N (10–1000 for full-scale stores)")
	nodes := fs.Int("nodes", 0, "override node count (after -scale; 0 = keep)")
	edges := fs.Int64("edges", 0, "override undirected edge target (after -scale; 0 = keep)")
	feat := fs.Int("feat", 0, "override feature width F0 (0 = keep)")
	featDtype := fs.String("feat-dtype", "fp32", "feature storage dtype: fp32 or fp16 (fp16 rounds once at generation)")
	fs.Parse(args)
	if *name == "" || *out == "" {
		return fmt.Errorf("gen needs -dataset and -o (try: argo-data gen -dataset arxiv-sim -o arxiv.argograph)")
	}
	switch {
	case *scale < 1:
		return fmt.Errorf("-scale must be ≥ 1, got %d", *scale)
	case *nodes < 0:
		return fmt.Errorf("-nodes must be ≥ 0 (0 keeps the profile's), got %d", *nodes)
	case *edges < 0:
		return fmt.Errorf("-edges must be ≥ 0 (0 keeps the profile's), got %d", *edges)
	case *feat < 0:
		return fmt.Errorf("-feat must be ≥ 0 (0 keeps the profile's), got %d", *feat)
	}
	dt, err := graph.ParseFeatDtype(*featDtype)
	if err != nil {
		return err
	}
	p, err := datasets.Get(*name)
	if err != nil {
		return err
	}
	spec := p.Spec.Scale(*scale)
	if *nodes > 0 {
		spec.ScaledNodes = *nodes
	}
	if *edges > 0 {
		spec.ScaledEdges = *edges
	}
	if *feat > 0 {
		spec.ScaledF0 = *feat
	}
	start := time.Now()
	ds, err := graph.Build(spec, *seed)
	if err != nil {
		return err
	}
	if err := ds.ConvertFeatures(dt); err != nil {
		return err
	}
	genTime := time.Since(start)
	start = time.Now()
	if err := ds.Save(*out); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("%s (seed %d): %d nodes, %d arcs, %d classes, %s features → %s (%d bytes, format v2)\n",
		spec.Name, *seed, ds.Graph.NumNodes, ds.Graph.NumEdges(), ds.NumClasses, ds.FeatDtype, *out, fi.Size())
	fmt.Printf("generated in %s, saved in %s\n", genTime.Round(time.Microsecond), time.Since(start).Round(time.Microsecond))
	return nil
}

// parsePositional parses fs from args that hold one positional argument,
// before or after the flags (`import edges.csv -o out` and `import -o
// out edges.csv` alike), and returns it ("" when absent). A second
// positional argument is refused with the message tooMany.
func parsePositional(fs *flag.FlagSet, args []string, tooMany string) (string, error) {
	var arg string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		arg, args = args[0], args[1:]
	}
	fs.Parse(args)
	switch {
	case arg == "" && fs.NArg() == 1:
		return fs.Arg(0), nil
	case fs.NArg() > 0:
		return "", errors.New(tooMany)
	}
	return arg, nil
}

func runImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	out := fs.String("o", "", "output .argograph path (required)")
	name := fs.String("name", "", "dataset name recorded in the spec (default: derived from the input file)")
	labelsPath := fs.String("labels", "", "optional node,label CSV; labels are synthesised when absent")
	featsPath := fs.String("feats", "", "optional node,f0,f1,... CSV; features are synthesised when absent")
	directed := fs.Bool("directed", false, "keep arcs as listed instead of symmetrising every edge")
	feat := fs.Int("feat", 16, "synthesised feature width (ignored with -feats)")
	classes := fs.Int("classes", 4, "synthesised class count (ignored with -labels)")
	trainFrac := fs.Float64("train-frac", 0.5, "training split fraction; val/test halve the rest")
	seed := fs.Int64("seed", 1, "seed for synthesis and the split shuffle")
	featDtype := fs.String("feat-dtype", "fp32", "feature storage dtype: fp32 or fp16 (fp16 rounds once at import)")
	src, err := parsePositional(fs, args, "import takes one edge-list file")
	if err != nil {
		return err
	}
	if src == "" || *out == "" {
		return fmt.Errorf("import needs an edge-list file and -o (try: argo-data import edges.csv -o mygraph.argograph)")
	}
	switch {
	case *feat < 1:
		return fmt.Errorf("-feat must be ≥ 1, got %d", *feat)
	case *classes < 2:
		return fmt.Errorf("-classes must be ≥ 2, got %d", *classes)
	case !(*trainFrac > 0 && *trainFrac < 1):
		return fmt.Errorf("-train-frac must lie in (0, 1), got %g", *trainFrac)
	}
	dt, err := graph.ParseFeatDtype(*featDtype)
	if err != nil {
		return err
	}
	if *name == "" {
		*name = strings.TrimSuffix(filepath.Base(src), filepath.Ext(src))
	}
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	opt := graph.ImportOptions{
		Name: *name, Directed: *directed,
		FeatDim: *feat, NumClasses: *classes,
		TrainFrac: *trainFrac, Seed: *seed,
	}
	if *labelsPath != "" {
		lf, err := os.Open(*labelsPath)
		if err != nil {
			return err
		}
		defer lf.Close()
		opt.Labels = lf
	}
	if *featsPath != "" {
		ff, err := os.Open(*featsPath)
		if err != nil {
			return err
		}
		defer ff.Close()
		opt.Features = ff
	}
	start := time.Now()
	ds, err := graph.ImportEdgeList(f, opt)
	if err != nil {
		return err
	}
	if err := ds.ConvertFeatures(dt); err != nil {
		return err
	}
	importTime := time.Since(start)
	start = time.Now()
	if err := ds.Save(*out); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	synth := []string{}
	if opt.Labels == nil {
		synth = append(synth, "labels")
	}
	if opt.Features == nil {
		synth = append(synth, "features")
	}
	note := ""
	if len(synth) > 0 {
		note = " (synthesised: " + strings.Join(synth, ", ") + ")"
	}
	fmt.Printf("%s: %d nodes, %d arcs, %d classes, %d-wide %s features%s → %s (%d bytes, format v2)\n",
		ds.Spec.Name, ds.Graph.NumNodes, ds.Graph.NumEdges(), ds.NumClasses, ds.Features.Cols, ds.FeatDtype, note, *out, fi.Size())
	fmt.Printf("splits: %d train / %d val / %d test; imported in %s, saved in %s\n",
		len(ds.TrainIdx), len(ds.ValIdx), len(ds.TestIdx),
		importTime.Round(time.Microsecond), time.Since(start).Round(time.Microsecond))
	return nil
}

func runInspect(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("inspect takes exactly one .argograph path")
	}
	start := time.Now()
	// Lazy open: only the header, section table, spec, and stats are
	// read, so inspect answers in microseconds on stores of any size.
	lz, err := graph.OpenLazy(args[0])
	if err != nil {
		return err
	}
	defer lz.Close()
	openTime := time.Since(start)
	fi, err := os.Stat(args[0])
	if err != nil {
		return err
	}
	st := lz.Stats()
	fmt.Printf("store:      %s (%d bytes, format v%d, opened in %s, %s)\n",
		args[0], fi.Size(), graph.StoreVersion, openTime.Round(time.Microsecond), lz.AccessMode())
	spec := lz.Spec()
	if spec.Name != "" {
		fmt.Printf("dataset:    %s\n", spec.Name)
	}
	if spec.Paper.Vertices > 0 {
		fmt.Printf("paper:      %d vertices, %d edges, F0=%d F1=%d F2=%d\n",
			spec.Paper.Vertices, spec.Paper.Edges, spec.Paper.F0, spec.Paper.F1, spec.Paper.F2)
	}
	fmt.Printf("graph:      %d nodes, %d arcs, avg degree %.1f, max degree %d\n",
		st.NumNodes, st.NumArcs, st.AvgDegree, st.MaxDegree)
	if st.FeatRows > 0 {
		fmt.Printf("features:   %d × %d %s (decodes to float32)\n", st.FeatRows, st.FeatCols, lz.FeatDtype())
	}
	if st.NumClasses > 0 {
		fmt.Printf("labels:     %d classes\n", st.NumClasses)
	}
	fmt.Printf("splits:     %d train / %d val / %d test\n", st.TrainCount, st.ValCount, st.TestCount)
	if hist := st.DegreeHist; len(hist) > 0 {
		fmt.Printf("degrees:    hist by bit-length %v\n", hist)
	}
	if sh := st.Shard; sh != nil {
		fmt.Printf("shard:      %d of %d — %d owned + %d halo nodes, %d cut arcs\n",
			sh.Index, sh.Count, sh.Owned, sh.Halo, sh.CutArcs)
	}
	if secs := lz.Sections(); len(secs) > 0 {
		fmt.Printf("sections:\n")
		fmt.Printf("  %-10s %12s %14s %14s %10s\n", "NAME", "OFFSET", "ON-DISK", "DECODED", "CRC32C")
		for _, s := range secs {
			// Every section decodes 1:1 except fp16 features, which widen
			// to float32 rows (same 16-byte dims header, doubled payload).
			decoded := s.Length
			if s.Name == "features16" {
				decoded = 16 + uint64(st.FeatRows)*uint64(st.FeatCols)*4
			}
			fmt.Printf("  %-10s %12d %14d %14d %10x\n", s.Name, s.Offset, s.Length, decoded, s.CRC)
		}
	}
	return nil
}

func runVerify(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("verify takes exactly one .argograph path")
	}
	// VerifyStore checks in trust-nothing order: header, section table
	// (overlapping or out-of-bounds extents are distinct errors raised
	// before any payload decode), per-section checksums, then a full
	// decode with every structural invariant.
	check, err := graph.VerifyStore(args[0])
	switch {
	case errors.Is(err, graph.ErrSectionOverlap):
		return fmt.Errorf("malformed section table (overlapping extents): %w", err)
	case errors.Is(err, graph.ErrSectionBounds):
		return fmt.Errorf("malformed section table (extent outside file): %w", err)
	case err != nil:
		return err
	}
	st := check.Stats
	fmt.Printf("%s: OK (format v%d dataset, %d nodes, %d arcs, %d classes, %s features, %d sections, checksums + invariants verified)\n",
		args[0], graph.StoreVersion, st.NumNodes, st.NumArcs, st.NumClasses, check.FeatDtype, len(check.Sections))
	return nil
}

func runConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	featDtype := fs.String("feat-dtype", "", "target feature dtype: fp32 or fp16 (required)")
	out := fs.String("o", "", "output path (default: rewrite in place)")
	src, err := parsePositional(fs, args, "convert takes one .argograph path (plus -feat-dtype and optional -o out)")
	if err != nil {
		return err
	}
	if src == "" || *featDtype == "" {
		return fmt.Errorf("convert needs a store and -feat-dtype (try: argo-data convert big.argograph -feat-dtype fp16)")
	}
	dt, err := graph.ParseFeatDtype(*featDtype)
	if err != nil {
		return err
	}
	dst := *out
	if dst == "" {
		dst = src
	}
	// Measure the precision loss BEFORE converting: the default dst is
	// src (in-place rewrite), and after conversion every value is
	// fp16-exact so the report would read all zeros.
	var report *graph.F16RoundingStats
	if dt == graph.DtypeF16 {
		lz, err := graph.OpenLazy(src)
		if err != nil {
			return err
		}
		if lz.FeatDtype() == graph.DtypeF32 {
			ds, err := lz.Dataset()
			if err != nil {
				lz.Close()
				return err
			}
			st := graph.F16RoundingReport(ds.Features)
			report = &st
		}
		if err := lz.Close(); err != nil {
			return err
		}
	}
	start := time.Now()
	from, identical, err := graph.ConvertStore(src, dst, dt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Microsecond)
	var dstBytes int64
	if fi, err := os.Stat(dst); err == nil {
		dstBytes = fi.Size()
	}
	switch {
	case identical:
		fmt.Printf("%s: already %s; rewritten byte-identically to %s in %s\n", src, dt, dst, elapsed)
	case from == dt:
		fmt.Printf("%s: already %s; re-encoded canonically to %s in %s\n", src, dt, dst, elapsed)
	default:
		fmt.Printf("%s: converted %s → %s at %s (%d bytes) in %s\n", src, from, dt, dst, dstBytes, elapsed)
	}
	if report != nil {
		fmt.Printf("  fp16 rounding over %d×%d: max |err| %.3g (column %d), mean |err| %.3g\n",
			report.Rows, report.Cols, report.OverallMax, report.WorstCol, report.MeanAbs)
	}
	return nil
}
