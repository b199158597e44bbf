package tensor

import (
	"fmt"

	"medsplit/internal/parallel"
)

// parallelThreshold is the work (multiply-adds, or values moved for the
// packing passes) below which the GEMM, conv, im2col and transpose
// kernels stay single-threaded: goroutine fan-out costs more than it
// saves on small products.
const parallelThreshold = 1 << 18

// This file holds the reference GEMM kernels: the unblocked i-k-j loops
// the engine shipped with originally, plus the worker fan-out every
// kernel in the package shares. The references remain the semantic
// ground truth: the differential tests hold the driver in gemm.go to
// them bit for bit on every kernel arm, and the benchmarks report
// speedups relative to them. Production code calls the gemm.go entry
// points (MatMulInto, MatMulTAAcc, MatMulTBInto), never these.

// MatMulNaive returns a·b with the reference unblocked i-k-j kernel.
func MatMulNaive(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul("MatMulNaive", a, b, false, false)
	out := New(m, n)
	mulRows := func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			arow := a.data[i*k : (i+1)*k]
			orow := out.data[i*n : (i+1)*n]
			for p, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.data[p*n : (p+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
	parallelRows(m, m*k*n, mulRows)
	return out
}

// MatMulTANaive returns aᵀ·b with the reference outer-product kernel.
func MatMulTANaive(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul("MatMulTANaive", a, b, true, false)
	out := New(m, n)
	work := m * k * n
	if work < parallelThreshold || parallel.Workers() == 1 {
		for p := 0; p < k; p++ {
			arow := a.data[p*m : (p+1)*m]
			brow := b.data[p*n : (p+1)*n]
			for i, av := range arow {
				if av == 0 {
					continue
				}
				orow := out.data[i*n : (i+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
		return out
	}
	// Parallel path: split output rows among workers; each worker scans
	// all k but only fills its own row range, so no synchronization is
	// needed.
	parallelRows(m, work, func(r0, r1 int) {
		for p := 0; p < k; p++ {
			arow := a.data[p*m : (p+1)*m]
			brow := b.data[p*n : (p+1)*n]
			for i := r0; i < r1; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				orow := out.data[i*n : (i+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
	return out
}

// MatMulTBNaive returns a·bᵀ with the reference row-dot kernel.
func MatMulTBNaive(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul("MatMulTBNaive", a, b, false, true)
	out := New(m, n)
	parallelRows(m, m*k*n, func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			arow := a.data[i*k : (i+1)*k]
			orow := out.data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := b.data[j*k : (j+1)*k]
				var s float32
				for p, av := range arow {
					s += av * brow[p]
				}
				orow[j] = s
			}
		}
	})
	return out
}

// checkMatMul validates shapes for the three product forms and returns
// (m, k, n): out is [m,n] and k is the contracted dimension.
func checkMatMul(op string, a, b *Tensor, transA, transB bool) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s needs rank-2 tensors, got %v and %v", op, a.shape, b.shape))
	}
	ak0, ak1 := a.shape[0], a.shape[1]
	bk0, bk1 := b.shape[0], b.shape[1]
	if transA {
		m, k = ak1, ak0
	} else {
		m, k = ak0, ak1
	}
	var kb int
	if transB {
		n, kb = bk0, bk1
	} else {
		kb, n = bk0, bk1
	}
	if k != kb {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch: %v × %v", op, a.shape, b.shape))
	}
	return m, k, n
}

// serialRows reports whether a kernel over the given rows/work runs on
// the calling goroutine. Hot call sites check it BEFORE building the
// closure they would hand to parallelRows (see parallel.Serial): that
// allocation dominated the small-shape training path.
func serialRows(rows, work int) bool { return parallel.Serial(rows, work, parallelThreshold) }

// parallelRows runs fn over [0,rows) split into contiguous chunks, one per
// worker, when the estimated work is large enough; otherwise serially.
func parallelRows(rows, work int, fn func(r0, r1 int)) {
	parallel.For(rows, work, parallelThreshold, fn)
}
