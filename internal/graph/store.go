package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"argo/internal/tensor/half"
)

// Constants shared by every .argograph container (the sectioned layout
// is described in storev2.go). Every multi-byte integer is little-endian;
// floats are stored as their IEEE-754 bit patterns, so features
// round-trip bit-exactly.
const (
	storeMagic = "ARGOGRPH"

	storeKindDataset = 1
	storeKindCSR     = 2

	storeHeaderLen = 32
)

// ErrUnsupportedVersion is wrapped (with the version found) by every
// opener handed a well-formed .argograph header of a format version this
// build does not read — including version 1, the monolithic layout
// written before the sectioned one replaced it.
var ErrUnsupportedVersion = errors.New("graph: unsupported .argograph version")

// CRC-32C has hardware support on both amd64 and arm64, which keeps the
// integrity check far off the load critical path (multiple GB/s).
var storeCRC = crc32.MakeTable(crc32.Castagnoli)

// Write serialises the dataset in .argograph format (the sectioned
// layout: see storev2.go).
func (d *Dataset) Write(w io.Writer) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("graph: refusing to write invalid dataset: %w", err)
	}
	b, err := encodeDatasetV2(d)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Save writes the dataset to path in .argograph format. The file is
// written to a temporary sibling first and renamed into place, so readers
// never observe a torn store.
func (d *Dataset) Save(path string) error {
	return saveAtomic(path, func(w io.Writer) error { return d.Write(w) })
}

// openReader opens the complete store read from r as an in-memory image.
func openReader(r io.Reader) (*LazyDataset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading .argograph store: %w", err)
	}
	return openLazySource(mmapSource{data}, nil)
}

// wantDataset rejects a bare-CSR store where a dataset store is needed.
func (l *LazyDataset) wantDataset() error {
	if l.kind != storeKindDataset {
		return fmt.Errorf("graph: .argograph payload kind %d, want %d", l.kind, storeKindDataset)
	}
	return nil
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
	if err := lz.wantDataset(); err != nil {
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

// Write serialises the CSR graph alone in .argograph format (payload
// kind 2, stats + csr sections), for callers that persist topology
// without features or labels.
func (g *CSR) Write(w io.Writer) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("graph: refusing to write invalid CSR: %w", err)
	}
	b, err := encodeCSRv2(g)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Save writes the CSR graph to path, atomically (see Dataset.Save).
func (g *CSR) Save(path string) error {
	return saveAtomic(path, func(w io.Writer) error { return g.Write(w) })
}

// Validate checks every structural invariant the training stack relies
// on: a valid CSR, features covering every node, labels within the class
// range, and split indices in bounds and mutually disjoint. It is the
// gate both sides of the binary store go through.
func (d *Dataset) Validate() error {
	if d.Graph == nil {
		return fmt.Errorf("graph: dataset has no graph")
	}
	if err := d.Graph.Validate(); err != nil {
		return err
	}
	n := d.Graph.NumNodes
	if d.Features == nil {
		return fmt.Errorf("graph: dataset has no features")
	}
	if d.Features.Rows != n {
		return fmt.Errorf("graph: %d feature rows for %d nodes", d.Features.Rows, n)
	}
	if d.Features.Cols < 1 {
		return fmt.Errorf("graph: feature width %d", d.Features.Cols)
	}
	if len(d.Features.Data) != d.Features.Rows*d.Features.Cols {
		return fmt.Errorf("graph: feature storage %d for %dx%d", len(d.Features.Data), d.Features.Rows, d.Features.Cols)
	}
	if d.FeatDtype == DtypeF16 {
		// The fp16 invariant: every value exactly representable, so each
		// store/wire re-encode of this dataset is lossless.
		if err := d.validateF16Exact(); err != nil {
			return err
		}
	}
	if d.NumClasses < 1 {
		return fmt.Errorf("graph: %d classes", d.NumClasses)
	}
	if len(d.Labels) != n {
		return fmt.Errorf("graph: %d labels for %d nodes", len(d.Labels), n)
	}
	for v, c := range d.Labels {
		if c < 0 || int(c) >= d.NumClasses {
			return fmt.Errorf("graph: node %d label %d outside [0,%d)", v, c, d.NumClasses)
		}
	}
	seen := make([]bool, n)
	for _, split := range []struct {
		name string
		ids  []NodeID
	}{{"train", d.TrainIdx}, {"val", d.ValIdx}, {"test", d.TestIdx}} {
		for _, v := range split.ids {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: %s index %d outside [0,%d)", split.name, v, n)
			}
			if seen[v] {
				return fmt.Errorf("graph: node %d appears in two splits (train/test leakage)", v)
			}
			seen[v] = true
		}
	}
	if len(d.TrainIdx) == 0 {
		return fmt.Errorf("graph: empty training split")
	}
	return nil
}

// saveAtomic writes via a temporary file in path's directory and renames
// it into place.
func saveAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp's 0600 would make the store unreadable by other users;
	// stores are shared artifacts, so give them ordinary file permissions.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func encodeCSR(e *enc, g *CSR) {
	e.u64(uint64(g.NumNodes))
	e.u64(uint64(len(g.Col)))
	e.i64s(g.RowPtr)
	e.i32s(g.Col)
}

// nilCSR stands in for a graph that failed to decode, so downstream
// decode steps can keep consuming the error-latched dec without nil
// checks.
var nilCSR = &CSR{RowPtr: []int64{0}}

func decodeCSR(d *dec) *CSR {
	// Division-only bounds checks, so declared counts can neither overflow
	// the guard nor drive an oversized allocation.
	numNodes := int(d.u64())
	numArcs := int(d.u64())
	if d.err == nil && (numNodes < 0 || numArcs < 0 ||
		numNodes >= math.MaxInt32 || numNodes+1 > d.remaining()/8) {
		d.fail(fmt.Errorf("graph: CSR of %d nodes exceeds payload", numNodes))
		return nilCSR
	}
	rowPtr := d.i64s(numNodes + 1)
	if d.err == nil && numArcs > d.remaining()/4 {
		d.fail(fmt.Errorf("graph: CSR of %d arcs exceeds payload", numArcs))
		return nilCSR
	}
	col := d.i32s(numArcs)
	if d.err != nil {
		return nilCSR
	}
	return &CSR{NumNodes: numNodes, RowPtr: rowPtr, Col: col}
}

// enc builds the little-endian payload. Slices are appended in one grow
// per field, keeping Save roughly memcpy-speed.
type enc struct{ buf []byte }

func (e *enc) grow(n int) []byte {
	off := len(e.buf)
	e.buf = append(e.buf, make([]byte, n)...)
	return e.buf[off:]
}

func (e *enc) u32(v uint32) { binary.LittleEndian.PutUint32(e.grow(4), v) }
func (e *enc) u64(v uint64) { binary.LittleEndian.PutUint64(e.grow(8), v) }
func (e *enc) i64s(xs []int64) {
	b := e.grow(8 * len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
}
func (e *enc) i32s(xs []int32) {
	b := e.grow(4 * len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}
func (e *enc) f32s(xs []float32) {
	b := e.grow(4 * len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
}
func (e *enc) halves(xs []float32) {
	half.EncodeBytes(e.grow(2*len(xs)), xs)
}

// dec consumes the payload with a latched error: after the first failure
// every further read returns zero values, so decode code stays linear.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) remaining() int { return len(d.buf) - d.off }

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.remaining() {
		d.fail(fmt.Errorf("graph: truncated payload: need %d bytes, have %d", n, d.remaining()))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) i64s(n int) []int64 {
	b := d.take(8 * n)
	if b == nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func (d *dec) i32s(n int) []int32 {
	b := d.take(4 * n)
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func (d *dec) f32s(n int) []float32 {
	b := d.take(4 * n)
	if b == nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// halves decodes n little-endian fp16 values, widening exactly. Unlike
// f32s it also polices values: the store writer only ever emits finite
// fp16, so Inf/NaN bits here are corruption (or a crafted store) and
// get a hard error rather than a poisoned kernel input.
func (d *dec) halves(n int) ([]float32, error) {
	b := d.take(2 * n)
	if b == nil {
		return nil, nil
	}
	out := make([]float32, n)
	for i := range out {
		h := uint16(b[2*i]) | uint16(b[2*i+1])<<8
		if !half.IsFinite(h) {
			return nil, fmt.Errorf("graph: non-finite fp16 bits %#04x at element %d", h, i)
		}
		out[i] = half.FromBits(h)
	}
	return out, nil
}
