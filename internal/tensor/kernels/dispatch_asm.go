//go:build (amd64 || arm64) && !purego

package kernels

// gemmPanelKASM drives the architecture GEMM microkernels over one
// k-panel: four output rows at a time through gemmPanel4, remainder
// rows through gemmPanel1, with the sub-vector column tail handled by
// a scalar loop that keeps the same per-element accumulation order.
// Caller guarantees r0 < r1, k > 0 and n >= gemmJ.
func gemmPanelKASM(out, arows, b []float32, r0, r1, k, n, lda, aoff int, acc bool) {
	i := r0 + (r1-r0)&^3
	gemmCols4(out, arows, b, r0, i, 0, k, n, lda, aoff, acc)
	nv := n &^ (gemmJ - 1)
	for ; i < r1; i++ {
		base := i*lda + aoff
		o := out[i*n : i*n+n]
		if !acc {
			zeroFloats(o)
		}
		gemmPanel1(&o[0], &arows[base], &b[0], k, n, nv)
		if nv < n {
			gemmTailCols(o, arows[base:base+k], b, nv, n)
		}
	}
}

// gemmCols4 runs columns [j0, n) of rows [i0, i1), a multiple of four
// rows, through gemmPanel4 and the scalar column tail. With acc false
// it zeroes those columns first and leaves [0, j0) alone, which the
// AVX-512 tile owns.
func gemmCols4(out, arows, b []float32, i0, i1, j0, k, n, lda, aoff int, acc bool) {
	if j0 == n {
		return
	}
	nv := (n - j0) &^ (gemmJ - 1)
	for i := i0; i < i1; i += 4 {
		base := i*lda + aoff
		o0 := out[(i+0)*n : (i+0)*n+n]
		o1 := out[(i+1)*n : (i+1)*n+n]
		o2 := out[(i+2)*n : (i+2)*n+n]
		o3 := out[(i+3)*n : (i+3)*n+n]
		if !acc {
			zeroFloats(o0[j0:])
			zeroFloats(o1[j0:])
			zeroFloats(o2[j0:])
			zeroFloats(o3[j0:])
		}
		if nv > 0 {
			gemmPanel4(&o0[j0], &o1[j0], &o2[j0], &o3[j0],
				&arows[base], &arows[base+lda], &arows[base+2*lda], &arows[base+3*lda],
				&b[j0], k, n, nv)
		}
		if j0+nv < n {
			gemmTailCols(o0, arows[base:base+k], b, j0+nv, n)
			gemmTailCols(o1, arows[base+lda:base+lda+k], b, j0+nv, n)
			gemmTailCols(o2, arows[base+2*lda:base+2*lda+k], b, j0+nv, n)
			gemmTailCols(o3, arows[base+3*lda:base+3*lda+k], b, j0+nv, n)
		}
	}
}

// gemmTailCols accumulates the sub-vector column tail [j0, len(o)) of
// one output row: o[j] += Σ_p a[p]·b[p*n+j], the chain held in a
// register so each element rounds exactly like the reference kernel
// (gc fuses the multiply-add on arm64 and not on amd64, matching the
// respective vector bodies).
func gemmTailCols(o, a []float32, b []float32, j0, n int) {
	for j := j0; j < len(o); j++ {
		u := o[j]
		for p, av := range a {
			u += av * b[p*n+j]
		}
		o[j] = u
	}
}
