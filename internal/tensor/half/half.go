// Package half implements IEEE 754 binary16 ("fp16") conversion for the
// compressed feature path: fp16 in the store and in the ddp codec, fp32
// in every kernel. The scalar converts are branch-light bit
// manipulations (no lookup tables, no float comparisons beyond the
// range splits), the slice kernels are their straight-line loops, and
// the byte kernels fix the wire encoding as little-endian uint16.
//
// Encode (Bits) rounds to nearest-even — the IEEE default — so a
// float32 survives fp32→fp16→fp32 unchanged exactly when it is fp16-
// representable. Decode (FromBits) is exact: every finite fp16 value,
// subnormals included, maps to the float32 with the same real value.
// That asymmetry is what the store leans on: converting a dataset to
// fp16 rounds once, and every later decode/re-encode of the rounded
// values is lossless, which makes fp16 stores byte-idempotent under
// convert and bit-identical across shard/reassembly and transports.
package half

import "math"

const (
	// MaxValue is the largest finite fp16 value (0x7bff = 65504).
	MaxValue = 65504.0
	// infBits is the fp16 bit pattern of +Inf (exponent all-ones,
	// mantissa zero); any magnitude ≥ infBits is non-finite.
	infBits = 0x7c00
)

// Bits converts a float32 to its fp16 bit pattern, rounding to
// nearest-even. Overflow saturates to ±Inf; NaN stays NaN; values below
// the smallest subnormal flush to signed zero. The conversion is pure
// integer arithmetic on the float32 bits: one range split for
// Inf/NaN/overflow, one for the subnormal band, and a magic-number add
// in each branch that makes the hardware's float rounding perform the
// fp16 rounding.
func Bits(f float32) uint16 {
	x := math.Float32bits(f)
	sign := uint16(x>>16) & 0x8000
	x &= 0x7fffffff
	switch {
	case x >= 0x47800000: // |f| ≥ 65536: overflow, Inf, or NaN
		if x > 0x7f800000 { // NaN: keep a quiet-NaN payload bit
			return sign | infBits | 0x0200
		}
		return sign | infBits
	case x < 0x38800000: // |f| < 2^-14: fp16 subnormal (or zero)
		// Adding 0.5 as a float aligns the mantissa so the float adder
		// performs the shift-and-round into the subnormal significand.
		m := math.Float32bits(math.Float32frombits(x) + 0.5)
		return sign | uint16(m-0x3f000000)
	default:
		// Normal range: rebias the exponent, then add 0xfff plus the
		// round bit's neighbour so truncation rounds to nearest-even.
		x -= (127 - 15) << 23
		x += 0xfff + ((x >> 13) & 1)
		return sign | uint16(x>>13)
	}
}

// FromBits converts an fp16 bit pattern to float32 exactly. Normals
// rebias, subnormals renormalise through one float subtract, Inf/NaN
// widen their exponent; no finite input loses value.
func FromBits(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	mag := uint32(h & 0x7fff)
	switch {
	case mag >= infBits: // Inf or NaN
		return math.Float32frombits(sign | 0x7f800000 | (mag&0x03ff)<<13)
	case mag >= 0x0400: // normal
		return math.Float32frombits(sign | (mag<<13 + (127-15)<<23))
	case mag == 0:
		return math.Float32frombits(sign)
	default: // subnormal: value = mag × 2^-24
		// Interpreting mag with a 2^-14 exponent and subtracting the
		// bias constant renormalises without a loop over leading zeros.
		f := math.Float32frombits(0x38800000|mag<<13) - math.Float32frombits(0x38800000)
		return math.Float32frombits(sign | math.Float32bits(f))
	}
}

// IsFinite reports whether the fp16 bit pattern is a finite value.
func IsFinite(h uint16) bool { return h&0x7fff < infBits }

// Encode rounds each float32 in src into dst. Panics if dst is shorter
// than src (standard slice-kernel contract).
func Encode(dst []uint16, src []float32) {
	_ = dst[:len(src)]
	for i, v := range src {
		dst[i] = Bits(v)
	}
}

// Decode widens each fp16 bit pattern in src into dst exactly.
func Decode(dst []float32, src []uint16) {
	_ = dst[:len(src)]
	for i, h := range src {
		dst[i] = FromBits(h)
	}
}

// EncodeBytes rounds src into dst as little-endian uint16 — the store
// section and wire payload encoding. dst needs 2*len(src) bytes.
func EncodeBytes(dst []byte, src []float32) {
	_ = dst[:2*len(src)]
	for i, v := range src {
		h := Bits(v)
		dst[2*i] = byte(h)
		dst[2*i+1] = byte(h >> 8)
	}
}

// DecodeBytes widens little-endian uint16 bytes into dst exactly.
// src needs 2*len(dst) bytes.
func DecodeBytes(dst []float32, src []byte) {
	_ = src[:2*len(dst)]
	for i := range dst {
		dst[i] = FromBits(uint16(src[2*i]) | uint16(src[2*i+1])<<8)
	}
}

// Round is the fp32→fp16→fp32 round trip: the nearest fp16-
// representable value. Converting a feature matrix through Round is
// what makes an fp16 store's decoded values exact thereafter.
func Round(f float32) float32 { return FromBits(Bits(f)) }
