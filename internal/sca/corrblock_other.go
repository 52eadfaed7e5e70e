//go:build !amd64

package sca

// corrBlock derives and transforms one block; the portable kernel is
// the only implementation on this architecture.
func corrBlock(out *[blockLen]float64, strip, tbl []float64, n float64, h, sh, t, st []float64) {
	corrBlockGeneric(out, strip, tbl, n, h, sh, t, st)
}
