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

// gemmTableAVX512 drives the table tile over GemmTable's output: KC
// panels outer, as GemmPanel visits them, and eight rows at a time
// inner. The first panel starts the chains from +0 and the last adds
// the bias before its store. Caller guarantees m % 8 == 0,
// n % zmmMinN == 0 and k > 0.
func gemmTableAVX512(out, a, b []float32, off []int, bias []float32, m, k, n int) {
	for p0 := 0; p0 < k; p0 += KC {
		p1 := min(p0+KC, k)
		for i := 0; i < m; i += 8 {
			var bp *float32
			if p1 == k && bias != nil {
				bp = &bias[i]
			}
			gemmTable8x16(&out[i*n], &a[i*k+p0], &b[0], &off[p0], p1-p0, n, k, n, p0 == 0, bp)
		}
	}
}

// gemmTable8x16 is the table-driven AVX-512 tile (gemm_avx512_amd64.s):
// gemmTile8x16 with b row p at b[off[p]:], and bias[0..7] added to the
// eight rows before the store when bias is not nil.
//
//go:noescape
func gemmTable8x16(o, a, b *float32, off *int, kb, n, lda, nv int, zero bool, bias *float32)
