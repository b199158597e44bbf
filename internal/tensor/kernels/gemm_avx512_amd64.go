//go:build amd64 && !purego

package kernels

// gemmPanelKAVX512 drives the zmm tile over one k-panel: eight rows at
// a time through the 8×16 tile for every whole 16-column strip. The
// columns it leaves (fewer than 16) and the rows past the last whole
// tile take the AVX2 path. Caller guarantees r0 < r1, k > 0 and
// n ≥ zmmMinN.
func gemmPanelKAVX512(out, arows, b []float32, r0, r1, k, n, lda, aoff int, acc bool) {
	n16 := n &^ 15
	i := r0
	for ; i+8 <= r1; i += 8 {
		base := i*lda + aoff
		gemmTile8x16(&out[i*n], &arows[base], &b[0], k, n, lda, n16, !acc)
		gemmCols4(out, arows, b, i, i+8, n16, k, n, lda, aoff, acc)
	}
	if i < r1 {
		gemmPanelKASM(out, arows, b, i, r1, k, n, lda, aoff, acc)
	}
}

// gemmTile8x16 is the AVX-512 tile (gemm_avx512_amd64.s). Counts are
// in floats; nv is a multiple of 16. zero starts the chains from +0
// instead of loading o.
//
//go:noescape
func gemmTile8x16(o, a, b *float32, kb, n, lda, nv int, zero bool)
