package tensor

import (
	"os"
	"regexp"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// TestCPUHasAVX2MatchesProcCpuinfo checks the CPUID/XGETBV probe against
// the kernel's own reading of the same bits.
func TestCPUHasAVX2MatchesProcCpuinfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := regexp.MustCompile(`(?m)^flags\s*:.*$`).Find(info)
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	want := regexp.MustCompile(`\savx2(\s|$)`).Match(flags)
	if got := cpuHasAVX2(); got != want {
		t.Fatalf("cpuHasAVX2() = %v, /proc/cpuinfo says %v", got, want)
	}
	t.Logf("avx2 = %v", want)
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

func guardedMatrix(t *testing.T, rows, cols int) *Matrix {
	m := FromSlice(rows, cols, guarded[float32](t, rows*cols))
	for i := range m.Data {
		m.Data[i] = float32(i%7) - 3 // includes zeros, so the skip runs too
	}
	return m
}

// TestRowKernelsStayInsideOperands runs the selected row loops with
// every operand up against an unmapped page, at every tail width. A
// kernel whose masked tail loaded a whole vector, or whose last row
// read on into the next, dies here.
func TestRowKernelsStayInsideOperands(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const m, k = 3, 5
	for n := 1; n <= 72; n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("width %d: %v", n, r)
				}
			}()
			a, at, b, dst := guardedMatrix(t, m, k), guardedMatrix(t, k, m), guardedMatrix(t, k, n), guardedMatrix(t, m, n)
			matMulRows(dst, a, b, 0, m)
			matMulATRows(dst, at, b, 0, m)
			rowMulAdd(dst.Row(m-1), a.Row(m-1), b)
			ids := guarded[int32](t, 3)
			ids[0], ids[2] = k-1, k-1
			addRows(guarded[float32](t, n), b, ids)
		}()
	}
}
