package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// simdKernels lists the SIMD kernels this CPU can run under MatMul and
// MatMulAT: AVX2, and AVX-512 where present.
func simdKernels() []rowKernel {
	avx2, avx512 := cpuFeatures()
	set := func(kern func(dst, a, b *float32, rows, k, n, aRow, aStep int, zero bool)) func() func() {
		return func() func() {
			m, at, k := matMulRows, matMulATRows, mulAddRows
			matMulRows, matMulATRows, mulAddRows = matMulRowsAVX2, matMulATRowsAVX2, kern
			return func() { matMulRows, matMulATRows, mulAddRows = m, at, k }
		}
	}
	var ks []rowKernel
	if avx2 {
		ks = append(ks, rowKernel{"avx2", set(avx2MulAddRows)})
	}
	if avx512 {
		ks = append(ks, rowKernel{"avx512", set(avx512MulAddRows)})
	}
	return ks
}

// TestAVX512MatchesAVX2 holds the two dense kernels to every bit, NaN
// payloads included, which the comparison with the Go loops cannot
// (see sameBits): both multiply a's broadcast by b and add the product
// to the sum, so the first NaN of each operation is the same one. Both
// layouts of a, accumulating and starting from zero, every row count
// modulo the four-row pass and every tail width.
func TestAVX512MatchesAVX2(t *testing.T) {
	if _, avx512 := cpuFeatures(); !avx512 {
		t.Skip("no AVX-512F")
	}
	for rows := 1; rows <= 9; rows++ {
		for n := 1; n <= 72; n++ {
			for _, k := range []int{1, 7, 64, 65} {
				rng := rand.New(rand.NewSource(int64(rows*100003 + n*1009 + k)))
				a, b, init := randomMatrix(rng, rows, k), randomMatrix(rng, k, n), randomMatrix(rng, rows, n)
				reluZeros(rng, a)
				for _, m := range []*Matrix{a, b, init} {
					sprinklePayloads(rng, m.Data)
				}
				a, b = unaligned(a), unaligned(b)
				// a's rows, and a's rows·k entries read as the columns of a k×rows aᵀ
				for _, layout := range [][2]int{{k, 1}, {1, rows}} {
					for _, zero := range []bool{false, true} {
						what := fmt.Sprintf("%d rows, k %d, width %d, aRow %d aStep %d, zero=%v", rows, k, n, layout[0], layout[1], zero)
						got, check := fenced(init)
						want := init.Clone()
						avx512MulAddRows(&got.Data[0], &a.Data[0], &b.Data[0], rows, k, n, layout[0], layout[1], zero)
						avx2MulAddRows(&want.Data[0], &a.Data[0], &b.Data[0], rows, k, n, layout[0], layout[1], zero)
						check(t, what)
						if at, ok := sameAllBits(got.Data, want.Data); !ok {
							t.Fatalf("%s: element %d = %#08x, avx2 %#08x", what, at, math.Float32bits(got.Data[at]), math.Float32bits(want.Data[at]))
						}
					}
				}
			}
		}
	}
}
