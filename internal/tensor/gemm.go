package tensor

import (
	"fmt"

	"medsplit/internal/tensor/kernels"
)

// This file is the GEMM driver behind MatMul, MatMulTA and MatMulTB and
// their Into/Acc variants. Every product runs through one kernel,
// kernels.GemmPanel (its doc covers blocking, register tiling and
// dispatch); the driver only brings the operands into the row-major
// layout the kernel reads and fans output rows out over workers:
//
//   - a·b: both operands are already in place;
//   - a·bᵀ: bᵀ is packed once into pooled scratch before the fan-out;
//   - aᵀ·b: each worker packs its own rows of aᵀ, one gemmKC panel at
//     a time, so no value is packed twice.
//
// Packing only moves values, and the kernel gives every output element
// one sequential accumulation chain over k, so every form is
// bit-identical to its naive reference on finite inputs; the
// differential tests assert exactly that on every kernel arm.

// gemmKC is the contraction-dimension panel size of the aᵀ packing. It
// mirrors kernels.KC so a packed panel is exactly one kernel panel.
const gemmKC = kernels.KC

// MatMul returns the matrix product a·b for a of shape [m,k] and b of
// shape [k,n].
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul("MatMul", a, b, false, false)
	out := New(m, n)
	gemm(out.data, a.data, b.data, m, k, n, false, false, false)
	return out
}

// MatMulInto computes a·b into dst (shape [m,n]), overwriting it, and
// returns dst. dst may be dirty pooled storage; every element is written.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k, n := checkMatMul("MatMulInto", a, b, false, false)
	checkGemmDst("MatMulInto", dst, m, n)
	gemm(dst.data, a.data, b.data, m, k, n, false, false, false)
	return dst
}

// MatMulTA returns aᵀ·b for a of shape [k,m] and b of shape [k,n],
// producing [m,n] without materializing the transpose. Dense-layer weight
// gradients (xᵀ·dy) use this form.
func MatMulTA(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul("MatMulTA", a, b, true, false)
	out := New(m, n)
	gemm(out.data, a.data, b.data, m, k, n, true, false, false)
	return out
}

// MatMulTAAcc accumulates dst += aᵀ·b. It is the fused form of the
// gradient update pattern G.AddInPlace(MatMulTA(x, dy)) and avoids the
// temporary product tensor entirely.
func MatMulTAAcc(dst, a, b *Tensor) *Tensor {
	m, k, n := checkMatMul("MatMulTAAcc", a, b, true, false)
	checkGemmDst("MatMulTAAcc", dst, m, n)
	gemm(dst.data, a.data, b.data, m, k, n, true, false, true)
	return dst
}

// MatMulTB returns a·bᵀ for a of shape [m,k] and b of shape [n,k],
// producing [m,n]. Dense-layer input gradients (dy·wᵀ) use this form.
func MatMulTB(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul("MatMulTB", a, b, false, true)
	out := New(m, n)
	gemm(out.data, a.data, b.data, m, k, n, false, true, false)
	return out
}

// MatMulTBInto computes a·bᵀ into dst (shape [m,n]), overwriting it, and
// returns dst.
func MatMulTBInto(dst, a, b *Tensor) *Tensor {
	m, k, n := checkMatMul("MatMulTBInto", a, b, false, true)
	checkGemmDst("MatMulTBInto", dst, m, n)
	gemm(dst.data, a.data, b.data, m, k, n, false, true, false)
	return dst
}

func checkGemmDst(op string, dst *Tensor, m, n int) {
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d,%d]", op, dst.shape, m, n))
	}
}

// gemm computes out [m,n] = op(a)·op(b), or adds it to out when acc is
// set. op(a) is [m,k]: a is stored [m,k], or [k,m] with transA. op(b)
// is [k,n]: b is stored [k,n], or [n,k] with transB.
func gemm(out, a, b []float32, m, k, n int, transA, transB, acc bool) {
	if transB {
		bt := Default.GetBuf(k * n)
		transpose(bt, b, 1, n, k)
		gemm(out, a, bt, m, k, n, transA, false, acc)
		Default.PutBuf(bt)
		return
	}
	if serialRows(m, m*k*n) {
		gemmRange(out, a, b, m, k, n, transA, acc, 0, m)
		return
	}
	parallelRows(m, m*k*n, func(r0, r1 int) {
		gemmRange(out, a, b, m, k, n, transA, acc, r0, r1)
	})
}

// gemmRange computes out rows [r0,r1) of op(a)·b. With transA it packs
// gemmKC-wide panels of those rows of aᵀ into pooled scratch and runs
// the kernel over each, shifting b to the panel's contraction offset
// and accumulating for every panel after the first.
func gemmRange(out, a, b []float32, m, k, n int, transA, acc bool, r0, r1 int) {
	if !transA {
		kernels.GemmPanel(out, a, b, r0, r1, k, n, 0, acc)
		return
	}
	rows := r1 - r0
	pk := Default.GetBuf(rows * min(gemmKC, k))
	for p0 := 0; p0 < k; p0 += gemmKC {
		kb := min(gemmKC, k-p0)
		for i := r0; i < r1; i++ {
			row := pk[(i-r0)*kb : (i-r0)*kb+kb]
			for p := range row {
				row[p] = a[(p0+p)*m+i]
			}
		}
		// Packed row i sits at (i-r0)·kb, so lda = kb and aoff = -r0·kb.
		kernels.GemmPanelK(out, pk, b[p0*n:], r0, r1, kb, n, kb, -r0*kb, acc || p0 > 0)
	}
	Default.PutBuf(pk)
}

// transpose writes the transposes of the batch [rows, cols] matrices in
// src to dst as batch [cols, rows] matrices. It fans out over dst's
// rows, which are disjoint, so workers never overlap.
func transpose(dst, src []float32, batch, rows, cols int) {
	units, work := batch*cols, batch*rows*cols
	if serialRows(units, work) {
		transposeRange(dst, src, rows, cols, 0, units)
		return
	}
	parallelRows(units, work, func(u0, u1 int) {
		transposeRange(dst, src, rows, cols, u0, u1)
	})
}

// transposeRange fills dst rows [u0,u1) for transpose: row u is column
// u%cols of source matrix u/cols.
func transposeRange(dst, src []float32, rows, cols, u0, u1 int) {
	for u := u0; u < u1; u++ {
		s, c := u/cols, u%cols
		m := src[s*rows*cols:]
		row := dst[u*rows : u*rows+rows]
		for r := range row {
			row[r] = m[r*cols+c]
		}
	}
}

func zeroFloats(s []float32) {
	for i := range s {
		s[i] = 0
	}
}
