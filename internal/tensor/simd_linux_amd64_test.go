package tensor

import (
	"fmt"
	"os"
	"regexp"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// TestCPUHasAVX2MatchesProcCpuinfo checks the CPUID/XGETBV probe, for
// AVX2 and for AVX-512F, against the kernel's own reading of the same
// bits.
func TestCPUHasAVX2MatchesProcCpuinfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := regexp.MustCompile(`(?m)^flags\s*:.*$`).Find(info)
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	want2 := regexp.MustCompile(`\savx2(\s|$)`).Match(flags)
	want512 := regexp.MustCompile(`\savx512f(\s|$)`).Match(flags)
	if avx2, avx512 := cpuFeatures(); avx2 != want2 || avx512 != want512 {
		t.Fatalf("cpuFeatures() = avx2 %v, avx512 %v; /proc/cpuinfo says %v, %v", avx2, avx512, want2, want512)
	}
	t.Logf("avx2 = %v, avx512f = %v", want2, want512)
}

// guarded returns n zeroed elements that end at a page boundary with an
// inaccessible page behind them: reading or writing one element too
// many faults, which canaries cannot see for a read.
func guarded[T float32 | int32](t *testing.T, n int) []T {
	t.Helper()
	if n == 0 {
		return nil
	}
	page := syscall.Getpagesize()
	data := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skip(err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // a failed unmap leaks two pages of a test process
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Skip(err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[data-4*n])), n)
}

// guardedMatrix fills a guarded rows×cols matrix with nonzero values,
// or with a zero in every seven so the zero-skip runs too.
func guardedMatrix(t *testing.T, rows, cols int, zeros bool) *Matrix {
	m := FromSlice(rows, cols, guarded[float32](t, rows*cols))
	for i := range m.Data {
		m.Data[i] = float32(i%7) + 1
		if zeros {
			m.Data[i] -= 4
		}
	}
	return m
}

// TestRowKernelsStayInsideOperands runs each dense kernel the CPU has,
// and the other row loops start-up selected, with every operand up
// against an unmapped page, at every tail width, at depths on either
// side of the 8-entry group and the 64-entry chunk, and at row counts
// below, at and past the AVX-512 kernel's four-row pass. A kernel whose
// masked tail loaded a whole vector, whose group test read past the end
// of a, or whose last row or pass read on into the next, dies here.
// The per-element passes run on the same operands: bias and ReLU on
// dst, ReLU backward reading dst as its gradient, the scatter into b.
func TestRowKernelsStayInsideOperands(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, kern := range simdKernels() {
		t.Run(kern.name, func(t *testing.T) {
			kern.use(t)
			for _, k := range []int{5, 8, 13, 16, 64, 65} {
				for n := 1; n <= 72; n++ {
					// a subtest per depth and width unmaps its pages when it ends
					t.Run(fmt.Sprintf("k%d_n%d", k, n), func(t *testing.T) { rowKernelsStayInside(t, k, n) })
				}
			}
		})
	}
}

func rowKernelsStayInside(t *testing.T, k, n int) {
	for _, m := range []int{3, 4, 5, 7, 8, 9} {
		for _, zeros := range []bool{false, true} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%d rows, depth %d width %d zeros=%v: %v", m, k, n, zeros, r)
					}
				}()
				a, at := guardedMatrix(t, m, k, zeros), guardedMatrix(t, k, m, zeros)
				b, dst := guardedMatrix(t, k, n, zeros), guardedMatrix(t, m, n, zeros)
				matMulRows(dst, a, b, 0, m)
				matMulATRows(dst, at, b, 0, m)
				ids := guarded[int32](t, 3)
				ids[0], ids[2] = int32(k-1), int32(k-1)
				addRows(guarded[float32](t, n), b, ids, 0.5)
				addBiasRows(dst.Data, guardedMatrix(t, 1, n, zeros).Data, zeros)
				reluBackwardCols(guardedMatrix(t, m, n, zeros), dst, guardedMatrix(t, m, n, zeros), guarded[float32](t, n), 0, n)
				scatterRows(b.Data, ids, guardedMatrix(t, 1, n, zeros).Data, 0.5)
			}()
		}
	}
}
