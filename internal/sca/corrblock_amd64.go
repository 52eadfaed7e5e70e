//go:build amd64

package sca

// corrBlockAVX512 and corrBlockAVX are the assembly forms of
// corrBlockGeneric: nc classes, 4 hypotheses × 16 samples, the same
// multiply-then-add chain per element (no fused multiply-add) and the
// same correlation transform, so all three legs are bit-identical.
func corrBlockAVX512(out, strip, tbl *float64, nc int, n float64, h, sh, t, st *float64)
func corrBlockAVX(out, strip, tbl *float64, nc int, n float64, h, sh, t, st *float64)

// corrBlock derives and transforms one block with the widest kernel the
// CPU has, bit-identically to corrBlockGeneric.
func corrBlock(out *[blockLen]float64, strip, tbl []float64, n float64, h, sh, t, st []float64) {
	nc := len(tbl) / blockHyps
	if nc == 0 || !hasAVX {
		corrBlockGeneric(out, strip, tbl, n, h, sh, t, st)
		return
	}
	// The kernels read exactly these extents; reslicing bounds-checks them.
	strip, h, sh, t, st = strip[:nc*stripLen], h[:blockHyps], sh[:blockHyps], t[:stripLen], st[:stripLen]
	if hasAVX512 {
		corrBlockAVX512(&out[0], &strip[0], &tbl[0], nc, n, &h[0], &sh[0], &t[0], &st[0])
	} else {
		corrBlockAVX(&out[0], &strip[0], &tbl[0], nc, n, &h[0], &sh[0], &t[0], &st[0])
	}
}
