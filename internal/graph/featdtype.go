package graph

import (
	"fmt"
	"math"

	"argo/internal/tensor"
	"argo/internal/tensor/half"
)

// FeatDtype selects the on-disk (and on-wire) element type of the
// node-feature matrix. Kernels always compute in float32; the dtype
// only decides how feature bytes are stored and shipped, with fp16
// decoded exactly at the gather boundary.
type FeatDtype uint8

const (
	// DtypeF32 is the default full-precision encoding (4 bytes/element).
	DtypeF32 FeatDtype = iota
	// DtypeF16 stores features as IEEE binary16 (2 bytes/element).
	// Datasets carrying this dtype hold only fp16-exact values (the
	// convert step rounds once and Validate enforces it), so every
	// store/wire re-encode after conversion is lossless.
	DtypeF16
)

// String returns the CLI/JSON name of the dtype.
func (t FeatDtype) String() string {
	if t == DtypeF16 {
		return "fp16"
	}
	return "fp32"
}

// Size returns the dtype's bytes per feature element.
func (t FeatDtype) Size() int {
	if t == DtypeF16 {
		return 2
	}
	return 4
}

// statsName is the dtype's stats/manifest JSON value: empty for fp32,
// so pre-dtype stores' JSON sections — and therefore their bytes — are
// reproduced unchanged by the canonical writer.
func (t FeatDtype) statsName() string {
	if t == DtypeF16 {
		return "fp16"
	}
	return ""
}

// section is the id of the store section holding features of this dtype.
func (t FeatDtype) section() uint32 {
	if t == DtypeF16 {
		return secFeaturesF16
	}
	return secFeatures
}

// ParseFeatDtype parses a -feat-dtype flag or a stats/manifest JSON
// value. The empty string is fp32 (pre-dtype stores).
func ParseFeatDtype(s string) (FeatDtype, error) {
	switch s {
	case "", "fp32", "f32", "float32":
		return DtypeF32, nil
	case "fp16", "f16", "float16", "half":
		return DtypeF16, nil
	}
	return DtypeF32, fmt.Errorf("graph: unknown feature dtype %q (fp32, fp16)", s)
}

// ConvertFeatures re-types the dataset's feature matrix in place.
// Widening to fp32 only changes the tag (fp16 values are already exact
// in float32). Narrowing to fp16 rounds every value to the nearest
// fp16 — a one-time precision loss — and refuses non-finite inputs and
// values beyond the fp16 range (|v| > 65504), which would silently
// saturate to ±Inf. After a successful narrow the matrix satisfies the
// fp16-exactness invariant Validate checks, so the conversion is
// idempotent and every later encode is lossless.
func (d *Dataset) ConvertFeatures(t FeatDtype) error {
	if t == d.FeatDtype {
		return nil
	}
	if t == DtypeF16 {
		for i, v := range d.Features.Data {
			f64 := float64(v)
			if math.IsNaN(f64) || math.IsInf(f64, 0) || math.Abs(f64) > half.MaxValue {
				return fmt.Errorf("graph: feature value %v at flat index %d not representable in fp16", v, i)
			}
			d.Features.Data[i] = half.Round(v)
		}
	}
	d.FeatDtype = t
	return nil
}

// F16RoundingStats quantifies the one-time precision loss of narrowing
// a feature matrix to fp16: per-column max and mean absolute rounding
// error, plus the worst column overall. Computed on the fp32 values
// BEFORE conversion (afterwards every value is fp16-exact and the
// report would be all zeros).
type F16RoundingStats struct {
	Rows, Cols int
	MaxErr     []float64 // per-column max |fp16(v) − v|
	MeanErr    []float64 // per-column mean |fp16(v) − v|
	WorstCol   int       // column with the largest max error
	WorstErr   float64   // that column's max error
	OverallMax float64   // == WorstErr; kept for report symmetry
	MeanAbs    float64   // mean |fp16(v) − v| over the whole matrix
}

// F16RoundingReport measures what ConvertFeatures(DtypeF16) would do to
// each column of m. Rounding uses the same nearest-even Round as the
// conversion itself, so the reported errors are exactly the deltas the
// converted store will carry.
func F16RoundingReport(m *tensor.Matrix) F16RoundingStats {
	st := F16RoundingStats{
		Rows:    m.Rows,
		Cols:    m.Cols,
		MaxErr:  make([]float64, m.Cols),
		MeanErr: make([]float64, m.Cols),
	}
	if m.Rows == 0 || m.Cols == 0 {
		return st
	}
	var total float64
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			e := math.Abs(float64(half.Round(v)) - float64(v))
			st.MeanErr[j] += e
			total += e
			if e > st.MaxErr[j] {
				st.MaxErr[j] = e
			}
		}
	}
	for j := range st.MeanErr {
		st.MeanErr[j] /= float64(m.Rows)
		if st.MaxErr[j] > st.WorstErr {
			st.WorstErr = st.MaxErr[j]
			st.WorstCol = j
		}
	}
	st.OverallMax = st.WorstErr
	st.MeanAbs = total / float64(m.Rows*m.Cols)
	return st
}

// validateF16Exact checks the fp16 dataset invariant: every feature
// value finite and bit-exactly representable in fp16.
func (d *Dataset) validateF16Exact() error {
	for i, v := range d.Features.Data {
		h := half.Bits(v)
		if !half.IsFinite(h) || half.FromBits(h) != v {
			return fmt.Errorf("graph: fp16 dataset holds non-fp16 value %v at flat index %d (run ConvertFeatures)", v, i)
		}
	}
	return nil
}
