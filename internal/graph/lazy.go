package graph

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"argo/internal/platform"
	"argo/internal/tensor"
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
	mapped   bool // true when backed by an mmap, not ReadAt
	spec     DatasetSpec
	stats    Stats
	sections []sectionEntry // nil for a wrapped in-memory dataset
	// featDtype is the store's feature encoding, decided by which
	// features section the table carries.
	featDtype FeatDtype

	mu    sync.Mutex
	src   sectionSource // nil once closed
	close func() error

	// Materialised sections. LazyFromDataset fills them all up front.
	graph  *CSR
	feats  *tensor.Matrix
	labels []int32
	splits *[3][]NodeID
	// eager caches the Dataset that Dataset assembles (or wraps).
	eager *Dataset

	// featRowsChecked records that the features section's row/col header
	// has been validated against the stats section, so FeatureRow can
	// slice straight into the payload on every later call.
	featRowsChecked bool
}

// errStoreClosed is returned by every accessor that needs store bytes
// after Close.
var errStoreClosed = errors.New("graph: store is closed")

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

// openReader opens the complete store read from r as an in-memory image.
func openReader(r io.Reader) (*LazyDataset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading .argograph store: %w", err)
	}
	return openLazySource(mmapSource{data}, nil)
}

// ReadDataset deserialises a dataset written with Dataset.Write. The
// header, every checksum, and every structural invariant (CSR shape,
// label range, split bounds) are verified before the dataset is
// returned.
func ReadDataset(r io.Reader) (*Dataset, error) {
	lz, err := openReader(r)
	if err != nil {
		return nil, err
	}
	return lz.Dataset()
}

// LoadDataset reads a .argograph dataset store from path, fully
// materialised and validated.
func LoadDataset(path string) (*Dataset, error) {
	lz, err := OpenLazy(path)
	if err != nil {
		return nil, err
	}
	defer lz.Close()
	d, err := lz.Dataset()
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	return d, nil
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
	h, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	table, err := src.view(storeHeaderLen, uint64(h.count)*sectionEntryLen)
	if err != nil {
		return nil, fmt.Errorf("graph: reading section table: %w", err)
	}
	entries, err := parseSectionTable(h, table, src.size())
	if err != nil {
		return nil, err
	}
	lz := &LazyDataset{sections: entries, src: src, close: closeFn}
	if err := lz.jsonSection(secStats, &lz.stats); err != nil {
		return nil, err
	}
	if err := lz.jsonSection(secSpec, &lz.spec); err != nil {
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
	return lz, nil
}

// Close releases the mapping / file handle. Accessors that need store
// bytes fail after Close; sections already materialised (and slices
// already returned) stay valid because decoding copies out of the
// mapping.
func (l *LazyDataset) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.src = nil
	if l.close == nil {
		return nil
	}
	err := l.close()
	l.close = nil
	return err
}

// AccessMode describes how sections are served: "memory" for a wrapped
// in-memory dataset, "mmap" for a mapped store, "pread" for the portable
// fallback.
func (l *LazyDataset) AccessMode() string {
	switch {
	case l.sections == nil:
		return "memory"
	case l.mapped:
		return "mmap"
	default:
		return "pread"
	}
}

// Spec returns the stored DatasetSpec. Read at open time; costs nothing.
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
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.sections {
		if _, err := l.sectionBytes(e.ID); err != nil {
			return err
		}
	}
	return nil
}

// bytesAt returns the store bytes in [off, off+n). It is the one place
// store bytes are read, so every accessor fails cleanly after Close.
// l.mu must be held (or l not yet shared).
func (l *LazyDataset) bytesAt(off, n uint64) ([]byte, error) {
	if l.src == nil {
		return nil, errStoreClosed
	}
	return l.src.view(off, n)
}

// entry returns the table entry of section id.
func (l *LazyDataset) entry(id uint32) (sectionEntry, error) {
	if e, ok := findSection(l.sections, id); ok {
		return e, nil
	}
	return sectionEntry{}, fmt.Errorf("graph: store has no %s section", SectionName(id))
}

// sectionBytes returns the CRC-verified payload of section id. l.mu
// must be held (or l not yet shared).
func (l *LazyDataset) sectionBytes(id uint32) ([]byte, error) {
	e, err := l.entry(id)
	if err != nil {
		return nil, err
	}
	b, err := l.bytesAt(e.Offset, e.Length)
	if err != nil {
		return nil, err
	}
	if sum := crc32.Checksum(b, storeCRC); sum != e.CRC {
		return nil, fmt.Errorf("graph: %s section checksum mismatch (payload corrupted)", SectionName(id))
	}
	return b, nil
}

// jsonSection decodes the spec, stats or manifest section id into v.
// l.mu must be held (or l not yet shared).
func (l *LazyDataset) jsonSection(id uint32, v any) error {
	b, err := l.sectionBytes(id)
	if err != nil {
		return err
	}
	if len(b) > maxJSONSection {
		return fmt.Errorf("graph: %s section of %d bytes", SectionName(id), len(b))
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("graph: decoding stored %s: %w", SectionName(id), err)
	}
	return nil
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
	b, err := l.sectionBytes(l.featDtype.section())
	if err != nil {
		return nil, err
	}
	m, err := decodeFeaturesSection(b, l.featDtype)
	if err != nil {
		return nil, err
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
// exists to avoid. `argo-data verify` remains the integrity gate. An
// fp16 row is still refused, naming its row and column, when it holds
// non-finite bits, as Features refuses them: the writer only emits
// finite fp16, so such bits are corruption the kernels must not see.
func (l *LazyDataset) FeatureRow(i int, dst []float32) ([]float32, error) {
	rows, cols := l.stats.FeatRows, l.stats.FeatCols
	if i < 0 || i >= rows {
		return nil, fmt.Errorf("graph: feature row %d outside [0,%d)", i, rows)
	}
	if cap(dst) < cols {
		dst = make([]float32, cols)
	}
	dst = dst[:cols]

	l.mu.Lock()
	defer l.mu.Unlock()
	if m := l.feats; m != nil {
		if m.Cols != cols || i >= m.Rows {
			return nil, fmt.Errorf("graph: features matrix %dx%d disagrees with stats %dx%d", m.Rows, m.Cols, rows, cols)
		}
		copy(dst, m.Row(i))
		return dst, nil
	}
	id, elem := l.featDtype.section(), uint64(l.featDtype.Size())
	e, err := l.entry(id)
	if err != nil {
		return nil, err
	}
	if !l.featRowsChecked {
		// First row read: validate the 16-byte section prefix (rows, cols)
		// against the stats the whole row-offset arithmetic trusts.
		hdr, err := l.bytesAt(e.Offset, 16)
		if err != nil {
			return nil, err
		}
		r, c := binary.LittleEndian.Uint64(hdr[0:]), binary.LittleEndian.Uint64(hdr[8:])
		if r != uint64(rows) || c != uint64(cols) {
			return nil, fmt.Errorf("graph: %s section %dx%d disagrees with stats %dx%d", SectionName(id), r, c, rows, cols)
		}
		if want := 16 + elem*r*c; e.Length != want {
			return nil, fmt.Errorf("graph: %s section is %d bytes, want %d for %dx%d", SectionName(id), e.Length, want, r, c)
		}
		l.featRowsChecked = true
	}

	// Row payload: section prefix (16 bytes) then row-major elements.
	// fp16 rows widen exactly through the half kernel, so a row read and
	// a materialised-matrix read return identical bits.
	b, err := l.bytesAt(e.Offset+16+uint64(i)*uint64(cols)*elem, uint64(cols)*elem)
	if err != nil {
		return nil, err
	}
	if err := l.featDtype.decode(dst, b); err != nil {
		return nil, fmt.Errorf("graph: feature row %d: %w", i, err)
	}
	return dst, nil
}

// ownedFeatureRows decodes the first len(at) rows of the features
// section into rows at[0], at[1], … of dst, once the section's checksum
// holds. The rows past that prefix are not decoded and nothing is
// cached.
func (l *LazyDataset) ownedFeatureRows(dst *tensor.Matrix, at []NodeID) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := l.sectionBytes(l.featDtype.section())
	if err != nil {
		return err
	}
	rows, cols, err := featuresShape(b, l.featDtype)
	if err == nil && (cols != dst.Cols || rows < len(at)) {
		err = fmt.Errorf("graph: %dx%d features do not hold %d rows %d wide", rows, cols, len(at), dst.Cols)
	}
	if err != nil {
		return err
	}
	rb := cols * l.featDtype.Size()
	for i, v := range at {
		if err := l.featDtype.decode(dst.Row(int(v)), b[16+i*rb:16+(i+1)*rb]); err != nil {
			return fmt.Errorf("graph: feature row %d: %w", i, err)
		}
	}
	return nil
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
	s, err := l.splitsLocked()
	if err != nil {
		return nil, nil, nil, err
	}
	return s[0], s[1], s[2], nil
}

func (l *LazyDataset) splitsLocked() (*[3][]NodeID, error) {
	if l.splits != nil {
		return l.splits, nil
	}
	b, err := l.sectionBytes(secSplits)
	if err != nil {
		return nil, err
	}
	s, err := decodeSplitsSection(b)
	if err != nil {
		return nil, err
	}
	l.splits = s
	return s, nil
}

// Dataset materialises every section into a validated *Dataset — the
// eager endpoint of the lazy API. The result is cached.
func (l *LazyDataset) Dataset() (*Dataset, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.eager != nil {
		return l.eager, nil
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
	splits, err := l.splitsLocked()
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
		TrainIdx:   splits[0],
		ValIdx:     splits[1],
		TestIdx:    splits[2],
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
	return &LazyDataset{
		spec:      d.Spec,
		stats:     ComputeStats(d),
		featDtype: d.FeatDtype,
		graph:     d.Graph,
		feats:     d.Features,
		labels:    d.Labels,
		splits:    &[3][]NodeID{d.TrainIdx, d.ValIdx, d.TestIdx},
		eager:     d,
	}
}
