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

// DenseSGDStep applies one plain-SGD step to a dense layer's weight w
// [in, out] and bias b [out] straight from the layer's input x
// [batch, in] and output gradient dy [batch, out]:
//
//	w += alpha·clamp(xᵀ·dy)    b += alpha·clamp(Σ_rows dy)
//
// clamping into [-limit, limit] (+Inf clamps nothing). Each element's
// sum is one chain from +0 in row order, so the result is bit-identical
// to zeroing gradients, MatMulTAAcc, SumRowsAcc, ClipInPlace and
// AxpyInPlace (kernels.OuterStep states the contract), without the
// gradients. w's rows fan out over workers like a GEMM's.
func DenseSGDStep(w, b, x, dy *Tensor, alpha, limit float32) {
	if len(x.shape) != 2 || len(dy.shape) != 2 || x.shape[0] != dy.shape[0] {
		panic(fmt.Sprintf("tensor: DenseSGDStep input %v and gradient %v", x.shape, dy.shape))
	}
	batch, in, out := x.shape[0], x.shape[1], dy.shape[1]
	checkGemmDst("DenseSGDStep", w, in, out)
	if b.Size() != out {
		panic(fmt.Sprintf("tensor: DenseSGDStep bias size %d, want %d", b.Size(), out))
	}
	if serialRows(in, in*batch*out) {
		kernels.OuterStep(w.data, x.data, dy.data, 0, in, batch, in, out, alpha, limit)
	} else {
		parallelRows(in, in*batch*out, func(r0, r1 int) {
			kernels.OuterStep(w.data, x.data, dy.data, r0, r1, batch, in, out, alpha, limit)
		})
	}
	for j := range b.data {
		u := float32(0)
		for r := 0; r < batch; r++ {
			u += dy.data[r*out+j]
		}
		if u > limit {
			u = limit
		} else if u < -limit {
			u = -limit
		}
		b.data[j] += alpha * u
	}
}

func checkGemmDst(op string, dst *Tensor, m, n int) {
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d,%d]", op, dst.shape, m, n))
	}
}

// gemmRowGroup is the row granule of gemm's fan-out: the AVX-512
// tile's eight rows, which the AVX2 tile's four divide. A chunk of
// whole groups keeps every tile a one-worker product would run; 8 rows
// split 4 and 4 would fall to the AVX2 tile on both workers.
const gemmRowGroup = 8

// gemm computes out [m,n] = op(a)·op(b), or adds it to out when acc is
// set. op(a) is [m,k]: a is stored [m,k], or [k,m] with transA. op(b)
// is [k,n]: b is stored [k,n], or [n,k] with transB. Rows fan out in
// whole gemmRowGroup groups; every output row keeps its own
// accumulation chain, so the grouping changes no bit.
func gemm(out, a, b []float32, m, k, n int, transA, transB, acc bool) {
	if transB {
		bt := Default.GetBuf(k * n)
		transpose(bt, b, 1, n, k)
		gemm(out, a, bt, m, k, n, transA, false, acc)
		Default.PutBuf(bt)
		return
	}
	groups := (m + gemmRowGroup - 1) / gemmRowGroup
	if serialRows(groups, m*k*n) {
		gemmRange(out, a, b, m, k, n, transA, acc, 0, m)
		return
	}
	parallelRows(groups, m*k*n, func(g0, g1 int) {
		gemmRange(out, a, b, m, k, n, transA, acc, g0*gemmRowGroup, min(g1*gemmRowGroup, m))
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
