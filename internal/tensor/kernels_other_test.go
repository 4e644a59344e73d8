//go:build !amd64

package tensor

// simdKernels: this architecture runs only the portable loops.
func simdKernels() []rowKernel { return nil }
