package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"argo/internal/platform"
	"argo/internal/tensor"
	"argo/internal/tensor/half"
)

// LazyDataset is an opened .argograph store that materialises
// sections on demand. Open reads only the header, section table, spec,
// and stats — a few hundred bytes regardless of store size — so a
// papers100M-class file yields its metadata in microseconds. Each
// section is read (and CRC-verified) the first time a consumer asks for
// it: samplers and partitioners that call Topology never pay for
// feature bytes, and `argo-data inspect` pays for nothing but the
// prefix.
//
// On linux the file is mmap'd, so "reading" a section is first-touch
// page faulting against the page cache and an out-of-RAM store can be
// traversed section by section; elsewhere a portable ReadAt fallback
// preserves the same laziness with one copy per touched section.
type LazyDataset struct {
	path     string
	kind     uint32
	mapped   bool // true when backed by an mmap, not ReadAt
	spec     DatasetSpec
	stats    Stats
	sections []sectionEntry
	// featDtype is the store's feature encoding, decided by which
	// features section the table carries (pre-dtype stores: fp32).
	featDtype FeatDtype

	src   sectionSource
	close func() error

	mu     sync.Mutex
	graph  *CSR
	feats  *tensor.Matrix
	labels []int32
	splits *[3][]NodeID

	// featRowsChecked records that the features section's row/col header
	// has been validated against the stats section, so FeatureRow can
	// slice straight into the payload on every later call.
	featRowsChecked bool

	// eager holds the wrapped dataset of LazyFromDataset, and caches the
	// one Dataset assembles.
	eager *Dataset
}

// sectionSource serves byte ranges of the underlying store.
type sectionSource interface {
	// view returns the store bytes in [off, off+n). The returned slice
	// may alias an mmap and must not be modified or retained past Close.
	view(off, n uint64) ([]byte, error)
	size() int64
}

// mmapSource serves ranges out of a memory-mapped (or in-memory) image.
type mmapSource struct{ data []byte }

func (m mmapSource) view(off, n uint64) ([]byte, error) {
	if off+n > uint64(len(m.data)) {
		return nil, fmt.Errorf("graph: section [%d,+%d) outside %d-byte store", off, n, len(m.data))
	}
	return m.data[off : off+n], nil
}

func (m mmapSource) size() int64 { return int64(len(m.data)) }

// readAtSource is the portable fallback: each view is one pread.
type readAtSource struct {
	r  io.ReaderAt
	sz int64
}

func (s readAtSource) view(off, n uint64) ([]byte, error) {
	if off+n > uint64(s.sz) {
		return nil, fmt.Errorf("graph: section [%d,+%d) outside %d-byte store", off, n, s.sz)
	}
	buf := make([]byte, n)
	if _, err := s.r.ReadAt(buf, int64(off)); err != nil {
		return nil, fmt.Errorf("graph: reading section bytes: %w", err)
	}
	return buf, nil
}

func (s readAtSource) size() int64 { return s.sz }

// OpenLazy opens the .argograph store at path for lazy section access.
// The caller owns the returned dataset and must Close it.
func OpenLazy(path string) (*LazyDataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	lz, err := openLazyFile(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	lz.path = path
	return lz, nil
}

func openLazyFile(f *os.File) (*LazyDataset, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if data, err := platform.MapFile(f); err == nil {
		lz, err := openLazySource(mmapSource{data}, func() error {
			unmapErr := platform.Unmap(data)
			if closeErr := f.Close(); closeErr != nil {
				return closeErr
			}
			return unmapErr
		})
		if err != nil {
			platform.Unmap(data)
			return nil, err
		}
		lz.mapped = true
		return lz, nil
	}
	// No mmap (non-linux, or an exotic file): pread-per-section fallback.
	return openLazySource(readAtSource{r: f, sz: fi.Size()}, f.Close)
}

// openLazySource reads the prefix (header, section table, spec, stats)
// and leaves everything else untouched. It is the seam the
// counting-reader tests instrument to prove CSR and feature bytes are
// never read by metadata-only consumers.
func openLazySource(src sectionSource, closeFn func() error) (*LazyDataset, error) {
	hdr, err := src.view(0, storeHeaderLen)
	if err != nil {
		return nil, fmt.Errorf("graph: reading .argograph header: %w", err)
	}
	h, err := parseHeader2(hdr)
	if err != nil {
		return nil, err
	}
	if h.kind != storeKindDataset && h.kind != storeKindCSR {
		return nil, fmt.Errorf("graph: unknown .argograph payload kind %d", h.kind)
	}
	if h.count > maxSections {
		return nil, fmt.Errorf("graph: implausible section count %d", h.count)
	}
	table, err := src.view(storeHeaderLen, uint64(h.count)*sectionEntryLen)
	if err != nil {
		return nil, fmt.Errorf("graph: reading section table: %w", err)
	}
	entries, err := parseSectionTable(h, table, src.size())
	if err != nil {
		return nil, err
	}
	lz := &LazyDataset{
		kind:     h.kind,
		sections: entries,
		src:      src,
		close:    closeFn,
	}
	statsB, err := lz.sectionBytes(secStats)
	if err != nil {
		return nil, err
	}
	if lz.stats, err = decodeStatsSection(statsB); err != nil {
		return nil, err
	}
	if h.kind == storeKindDataset {
		specB, err := lz.sectionBytes(secSpec)
		if err != nil {
			return nil, err
		}
		if lz.spec, err = decodeSpecSection(specB); err != nil {
			return nil, err
		}
		// The section table is authoritative for the feature dtype; the
		// stats copy exists for metadata-only readers and must agree.
		if _, f16 := findSection(entries, secFeaturesF16); f16 {
			if _, f32 := findSection(entries, secFeatures); f32 {
				return nil, fmt.Errorf("graph: store carries both features and features16 sections")
			}
			lz.featDtype = DtypeF16
		}
		statsDtype, err := ParseFeatDtype(lz.stats.FeatDtype)
		if err != nil {
			return nil, err
		}
		if statsDtype != lz.featDtype {
			return nil, fmt.Errorf("graph: stats dtype %q disagrees with the %s features section the table carries",
				lz.stats.FeatDtype, lz.featDtype)
		}
	}
	return lz, nil
}

// Close releases the mapping / file handle. Accessors must not be
// called after Close; slices already returned (features, labels) remain
// valid because decoding copies out of the mapping.
func (l *LazyDataset) Close() error {
	if l.close == nil {
		return nil
	}
	err := l.close()
	l.close = nil
	l.src = nil
	return err
}

// Mapped reports whether the store is served by an mmap (linux) rather
// than the ReadAt fallback.
func (l *LazyDataset) Mapped() bool { return l.mapped }

// AccessMode describes how sections are served: "memory" for a wrapped
// in-memory dataset, "mmap" for a mapped store, "pread" for the portable
// fallback.
func (l *LazyDataset) AccessMode() string {
	switch {
	case l.path == "" && l.src == nil:
		return "memory"
	case l.mapped:
		return "mmap"
	default:
		return "pread"
	}
}

// Kind reports the payload kind ("dataset" or "csr").
func (l *LazyDataset) Kind() string {
	if l.kind == storeKindCSR {
		return "csr"
	}
	return "dataset"
}

// Spec returns the stored DatasetSpec (zero for bare-CSR stores). Read
// at open time; costs nothing.
func (l *LazyDataset) Spec() DatasetSpec { return l.spec }

// FeatDtype reports the store's feature encoding (section table; costs
// nothing). Feature accessors always return float32 regardless.
func (l *LazyDataset) FeatDtype() FeatDtype { return l.featDtype }

// Stats returns the precomputed stats section. Read at open time.
func (l *LazyDataset) Stats() Stats { return l.stats }

// SectionInfo describes one section for tooling output.
type SectionInfo struct {
	Name   string
	Offset uint64
	Length uint64
	CRC    uint32
}

// Sections lists the store's sections in file order.
func (l *LazyDataset) Sections() []SectionInfo {
	out := make([]SectionInfo, len(l.sections))
	for i, e := range l.sections {
		out[i] = SectionInfo{Name: SectionName(e.ID), Offset: e.Offset, Length: e.Length, CRC: e.CRC}
	}
	return out
}

// verifyAllSections CRC-checks every section in the table — including
// ids this version of the code does not understand, which lazy
// materialisation would otherwise never touch. It is what makes
// `argo-data verify`'s "corruption anywhere is detected" claim hold on
// stores carrying future section kinds.
func (l *LazyDataset) verifyAllSections() error {
	for _, e := range l.sections {
		b, err := l.src.view(e.Offset, e.Length)
		if err != nil {
			return err
		}
		if sum := crc32.Checksum(b, storeCRC); sum != e.CRC {
			return fmt.Errorf("graph: %s section checksum mismatch (payload corrupted)", SectionName(e.ID))
		}
	}
	return nil
}

// sectionBytes returns the (CRC-verified) payload of the section with
// the given id. This is the only place lazy materialisation reads
// section payload bytes.
func (l *LazyDataset) sectionBytes(id uint32) ([]byte, error) {
	e, ok := findSection(l.sections, id)
	if !ok {
		return nil, fmt.Errorf("graph: store has no %s section", SectionName(id))
	}
	b, err := l.src.view(e.Offset, e.Length)
	if err != nil {
		return nil, err
	}
	if sum := crc32.Checksum(b, storeCRC); sum != e.CRC {
		return nil, fmt.Errorf("graph: %s section checksum mismatch (payload corrupted)", SectionName(id))
	}
	return b, nil
}

// Topology materialises (and caches) the CSR topology. Feature, label,
// and split bytes are not touched.
func (l *LazyDataset) Topology() (*CSR, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.topologyLocked()
}

func (l *LazyDataset) topologyLocked() (*CSR, error) {
	if l.graph != nil {
		return l.graph, nil
	}
	b, err := l.sectionBytes(secCSR)
	if err != nil {
		return nil, err
	}
	g, err := decodeCSRSection(b)
	if err != nil {
		return nil, err
	}
	// Metadata-only consumers trust the stats section sight unseen, so
	// the moment the real topology is decoded it must agree — a lying
	// stats section is corruption, whichever accessor finds it first.
	if int64(g.NumNodes) != l.stats.NumNodes || g.NumEdges() != l.stats.NumArcs {
		return nil, fmt.Errorf("graph: csr section (%d nodes, %d arcs) disagrees with stats (%d, %d)",
			g.NumNodes, g.NumEdges(), l.stats.NumNodes, l.stats.NumArcs)
	}
	l.graph = g
	return g, nil
}

// Features materialises (and caches) the node-feature matrix.
func (l *LazyDataset) Features() (*tensor.Matrix, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.featuresLocked()
}

func (l *LazyDataset) featuresLocked() (*tensor.Matrix, error) {
	if l.feats != nil {
		return l.feats, nil
	}
	if l.eager != nil {
		l.feats = l.eager.Features
		return l.feats, nil
	}
	var m *tensor.Matrix
	if l.featDtype == DtypeF16 {
		b, err := l.sectionBytes(secFeaturesF16)
		if err != nil {
			return nil, err
		}
		if m, err = decodeFeaturesF16Section(b); err != nil {
			return nil, err
		}
	} else {
		b, err := l.sectionBytes(secFeatures)
		if err != nil {
			return nil, err
		}
		if m, err = decodeFeaturesSection(b); err != nil {
			return nil, err
		}
	}
	if m.Rows != l.stats.FeatRows || m.Cols != l.stats.FeatCols {
		return nil, fmt.Errorf("graph: features section %dx%d disagrees with stats %dx%d",
			m.Rows, m.Cols, l.stats.FeatRows, l.stats.FeatCols)
	}
	l.feats = m
	return m, nil
}

// FeatureDim returns the feature width (stats section; costs nothing).
func (l *LazyDataset) FeatureDim() int { return l.stats.FeatCols }

// NumFeatureRows returns the feature row count (stats section).
func (l *LazyDataset) NumFeatureRows() int { return l.stats.FeatRows }

// FeatureRow reads the single feature row i into dst without
// materialising the features section. dst is grown as needed and the
// filled slice returned, so a caller with a pooled buffer pays no
// allocation. On an mmap-backed store the read is one row-sized slice of
// the mapping; on the ReadAt fallback it is one pread. Already
// materialised features (a wrapped dataset, or after Features was
// called) are served from the cached matrix.
//
// Row reads deliberately skip the section CRC: verifying it would read
// every feature byte, which is exactly what the row-granular path
// exists to avoid. `argo-data verify` remains the integrity gate.
func (l *LazyDataset) FeatureRow(i int, dst []float32) ([]float32, error) {
	cols := l.stats.FeatCols
	if i < 0 || i >= l.stats.FeatRows {
		return nil, fmt.Errorf("graph: feature row %d outside [0,%d)", i, l.stats.FeatRows)
	}
	if cap(dst) < cols {
		dst = make([]float32, cols)
	}
	dst = dst[:cols]

	l.mu.Lock()
	if l.feats == nil && l.eager != nil {
		l.feats = l.eager.Features
	}
	if m := l.feats; m != nil {
		l.mu.Unlock()
		if m.Cols != cols || i >= m.Rows {
			return nil, fmt.Errorf("graph: features matrix %dx%d disagrees with stats %dx%d",
				m.Rows, m.Cols, l.stats.FeatRows, cols)
		}
		copy(dst, m.Row(i))
		return dst, nil
	}
	src := l.src
	if src == nil {
		l.mu.Unlock()
		return nil, fmt.Errorf("graph: store is closed")
	}
	secID := uint32(secFeatures)
	elem := uint64(4)
	if l.featDtype == DtypeF16 {
		secID = secFeaturesF16
		elem = 2
	}
	e, ok := findSection(l.sections, secID)
	if !ok {
		l.mu.Unlock()
		return nil, fmt.Errorf("graph: store has no %s section", SectionName(secID))
	}
	if !l.featRowsChecked {
		// First row read: validate the 16-byte section prefix (rows, cols)
		// against the stats the whole row-offset arithmetic trusts.
		hdr, err := src.view(e.Offset, 16)
		if err != nil {
			l.mu.Unlock()
			return nil, err
		}
		rows := binary.LittleEndian.Uint64(hdr[0:])
		c := binary.LittleEndian.Uint64(hdr[8:])
		if rows != uint64(l.stats.FeatRows) || c != uint64(cols) {
			l.mu.Unlock()
			return nil, fmt.Errorf("graph: %s section %dx%d disagrees with stats %dx%d",
				SectionName(secID), rows, c, l.stats.FeatRows, cols)
		}
		if e.Length != 16+elem*rows*c {
			l.mu.Unlock()
			return nil, fmt.Errorf("graph: %s section is %d bytes, want %d for %dx%d",
				SectionName(secID), e.Length, 16+elem*rows*c, rows, c)
		}
		l.featRowsChecked = true
	}
	l.mu.Unlock()

	// Row payload: section prefix (16 bytes) then row-major elements.
	// fp16 rows widen exactly through the half kernel, so a row read and
	// a materialised-matrix read return identical bits.
	off := e.Offset + 16 + uint64(i)*uint64(cols)*elem
	b, err := src.view(off, uint64(cols)*elem)
	if err != nil {
		return nil, err
	}
	if l.featDtype == DtypeF16 {
		half.DecodeBytes(dst, b)
		return dst, nil
	}
	for k := range dst {
		dst[k] = math.Float32frombits(binary.LittleEndian.Uint32(b[k*4:]))
	}
	return dst, nil
}

// Labels materialises (and caches) the label vector.
func (l *LazyDataset) Labels() ([]int32, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.labelsLocked()
}

func (l *LazyDataset) labelsLocked() ([]int32, error) {
	if l.labels != nil {
		return l.labels, nil
	}
	if l.eager != nil {
		l.labels = l.eager.Labels
		return l.labels, nil
	}
	b, err := l.sectionBytes(secLabels)
	if err != nil {
		return nil, err
	}
	labels, err := decodeLabelsSection(b)
	if err != nil {
		return nil, err
	}
	l.labels = labels
	return labels, nil
}

// Splits materialises (and caches) the train/val/test index sets.
func (l *LazyDataset) Splits() (train, val, test []NodeID, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.splitsLocked()
}

func (l *LazyDataset) splitsLocked() (train, val, test []NodeID, err error) {
	if l.splits != nil {
		return l.splits[0], l.splits[1], l.splits[2], nil
	}
	if l.eager != nil {
		l.splits = &[3][]NodeID{l.eager.TrainIdx, l.eager.ValIdx, l.eager.TestIdx}
		return l.splits[0], l.splits[1], l.splits[2], nil
	}
	b, err := l.sectionBytes(secSplits)
	if err != nil {
		return nil, nil, nil, err
	}
	tr, va, te, err := decodeSplitsSection(b)
	if err != nil {
		return nil, nil, nil, err
	}
	l.splits = &[3][]NodeID{tr, va, te}
	return tr, va, te, nil
}

// Dataset materialises every section into a validated *Dataset — the
// eager endpoint of the lazy API. The result is cached.
func (l *LazyDataset) Dataset() (*Dataset, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.eager != nil {
		return l.eager, nil
	}
	if l.kind != storeKindDataset {
		return nil, fmt.Errorf("graph: store holds a bare CSR, not a dataset")
	}
	g, err := l.topologyLocked()
	if err != nil {
		return nil, err
	}
	feats, err := l.featuresLocked()
	if err != nil {
		return nil, err
	}
	labels, err := l.labelsLocked()
	if err != nil {
		return nil, err
	}
	train, val, test, err := l.splitsLocked()
	if err != nil {
		return nil, err
	}
	d := &Dataset{
		Spec:       l.spec,
		Graph:      g,
		Features:   feats,
		FeatDtype:  l.featDtype,
		Labels:     labels,
		NumClasses: l.stats.NumClasses,
		TrainIdx:   train,
		ValIdx:     val,
		TestIdx:    test,
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("graph: stored dataset invalid: %w", err)
	}
	l.eager = d
	return d, nil
}

// LazyFromDataset wraps an already materialised dataset in the lazy
// API, so registry-built workloads and file-backed ones flow through
// one code path in callers.
func LazyFromDataset(d *Dataset) *LazyDataset {
	return lazyFromDatasetWithStats(d, ComputeStats(d))
}

// lazyFromDatasetWithStats is LazyFromDataset for callers that already
// hold the dataset's stats (the in-memory shard constructor computes
// per-shard stats once in buildShards).
func lazyFromDatasetWithStats(d *Dataset, st Stats) *LazyDataset {
	return &LazyDataset{
		kind:      storeKindDataset,
		spec:      d.Spec,
		stats:     st,
		featDtype: d.FeatDtype,
		eager:     d,
		graph:     d.Graph,
	}
}
