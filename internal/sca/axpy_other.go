//go:build !amd64

package sca

// hasAVX exists for the shared path-selection logic; no VEX kernels off
// amd64.
var hasAVX = false

// axpy performs dst[s] += a * x[s]; on this architecture the portable
// kernel is the only implementation.
func axpy(dst, x []float64, a float64) { axpyGeneric(dst, x, a) }

// axpy4 applies four traces to one row in a single pass.
func axpy4(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	axpy4Generic(dst, x0, x1, x2, x3, a0, a1, a2, a3)
}
