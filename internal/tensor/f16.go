package tensor

import (
	"fmt"

	"medsplit/internal/tensor/kernels"
)

// F16Matrix is half-precision storage for a weight-stationary matrix:
// the operand of a GEMM that is written once (at load or checkpoint
// reload) and read every forward pass. Halving the bytes halves the
// memory traffic the serving matmuls are bound by; the arithmetic stays
// f32 — panels are widened through the (hardware-backed) kernel
// converter into pooled scratch and fed to the same vectorized GEMM
// panels, so accumulation precision is unchanged.
type F16Matrix struct {
	rows, cols int
	data       []uint16
}

// PackF16 narrows a rank-2 tensor to half precision (IEEE binary16,
// round-to-nearest-even). Values outside ±65504 saturate to ±Inf and
// magnitudes below 2⁻²⁴ flush to zero — callers own the judgment that
// their weights fit the f16 range (trained weights overwhelmingly do).
func PackF16(t *Tensor) *F16Matrix {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: PackF16 on rank-%d tensor", len(t.shape)))
	}
	m := &F16Matrix{rows: t.shape[0], cols: t.shape[1], data: make([]uint16, t.Size())}
	kernels.F32ToF16(m.data, t.data)
	return m
}

// Rows returns the row count of the packed matrix.
func (m *F16Matrix) Rows() int { return m.rows }

// Cols returns the column count of the packed matrix.
func (m *F16Matrix) Cols() int { return m.cols }

// SizeBytes returns the storage footprint of the packed matrix.
func (m *F16Matrix) SizeBytes() int { return 2 * len(m.data) }

// Unpack widens the matrix back to a float32 tensor (exact — every f16
// value is representable in f32).
func (m *F16Matrix) Unpack() *Tensor {
	t := New(m.rows, m.cols)
	kernels.F16ToF32(t.data, m.data)
	return t
}

// MatMulF16Into computes a·b into dst for a of shape [m,k] and
// f16-stored b of shape [k,n], overwriting dst, and returns dst. The
// product is bit-identical to MatMulInto(dst, a, b.Unpack()): b is
// widened panel-by-panel into pooled scratch (so the f32 image of b
// never materializes in full) and every output element accumulates in
// f32 through the same sequential chain the f32 engine uses.
func MatMulF16Into(dst, a *Tensor, b *F16Matrix) *Tensor {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulF16Into a is rank-%d, want 2", len(a.shape)))
	}
	m, k, n := a.shape[0], a.shape[1], b.cols
	if b.rows != k {
		panic(fmt.Sprintf("tensor: MatMulF16Into inner dims %d and %d", k, b.rows))
	}
	checkGemmDst("MatMulF16Into", dst, m, n)
	ad, od := a.data, dst.data
	wide := Default.GetBuf(min(gemmKC, k) * n)
	for p0 := 0; p0 < k; p0 += gemmKC {
		p1 := min(p0+gemmKC, k)
		kb := p1 - p0
		panel := wide[:kb*n]
		kernels.F16ToF32(panel, b.data[p0*n:p1*n])
		acc := p0 > 0
		if serialRows(m, m*k*n) {
			kernels.GemmPanelK(od, ad, panel, 0, m, kb, n, k, p0, acc)
		} else {
			parallelRows(m, m*k*n, func(r0, r1 int) {
				kernels.GemmPanelK(od, ad, panel, r0, r1, kb, n, k, p0, acc)
			})
		}
	}
	Default.PutBuf(wide)
	return dst
}
