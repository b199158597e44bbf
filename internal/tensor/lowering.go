package tensor

import (
	"fmt"

	"medsplit/internal/parallel"
	"medsplit/internal/tensor/kernels"
)

// This file is the convolution engine nn.Conv2D runs on: a channel-major
// lowering. Sample n's column matrix is colsT_n = [K, P], with one row
// per kernel tap — K = c·kh·kw in (ch, ky, kx) order — and one column
// per output pixel, P = oh·ow. In that layout all three convolution
// GEMMs run through kernels.GemmPanel with their operands in place:
//
//   - forward:         out_n [outC, P] = W [outC, K] · colsT_n, which is
//     sample n's NCHW output block, so no repack pass follows;
//   - weight gradient: Gᵀ [K, outC] += colsT_n · grad_nᵀ [P, outC], with
//     every grad_n packed to [P, outC] once before the products;
//   - input gradient:  dColsT_n [K, P] = Wᵀ [K, outC] · grad_n [outC, P],
//     which reads the NCHW gradient block in place.
//
// A tap row is the input shifted by one (ky, kx) offset, so im2col and
// col2im move whole contiguous rows instead of kw-float segments at
// stride K.
//
// Results are bit-identical to the row-major references (Im2ColNaive,
// MatMulTBNaive, Col2ImNaive): every output element keeps one
// sequential accumulation chain over the same index in the same order.
// IEEE multiplication is commutative, so swapping the GEMM operands
// changes no product; KC panel boundaries store exact float32 partial
// sums; and col2im adds each pixel's terms in the reference's order.
// The generic GEMM kernel skips a == 0 terms, and a is W or colsT here;
// the kernels package doc says why that changes no bit. The
// differential tests in conv_parallel_test.go hold every path to the
// references bit for bit.
//
// An eval-only forward need not build colsT_n at all. ConvEval's table
// route (stride 1, outC % 8 == 0, P % 16 == 0, the AVX-512 tile active)
// copies each sample kw times, shifted and zero-padded so that every
// tap row of colsT_n is a contiguous run of one copy, and the GEMM
// (kernels.GemmTable) reads those runs through a K-entry offset table
// and adds the bias in its store: kw·c·(h+2·pad)·ow floats of copies
// per sample instead of K·P of columns, and no separate bias pass. The
// chains are the column route's, so are the bits. Training keeps the
// column matrices, which the weight gradient reads.

// lowering is one sample's convolution geometry.
type lowering struct {
	c, h, w     int // input channels and spatial size
	oh, ow      int // output spatial size
	kh, kw      int
	stride, pad int
}

func newLowering(c, h, w, kh, kw, stride, pad int) lowering {
	return lowering{
		c: c, h: h, w: w,
		oh: ConvOutSize(h, kh, stride, pad), ow: ConvOutSize(w, kw, stride, pad),
		kh: kh, kw: kw, stride: stride, pad: pad,
	}
}

// taps is K, the row count of a sample's column matrix.
func (g lowering) taps() int { return g.c * g.kh * g.kw }

// pixels is P, the column count of a sample's column matrix.
func (g lowering) pixels() int { return g.oh * g.ow }

// fused3 reports whether col2im takes its 3-wide, stride-1 path, which
// adds a tap row's three kx offsets in one pass.
func (g lowering) fused3() bool { return g.kw == 3 && g.stride == 1 }

// span returns the output positions [lo, hi) along one axis whose tap
// at offset k lands inside the input: 0 <= o·stride − pad + k < in, for
// out output positions.
func span(in, out, k, stride, pad int) (lo, hi int) {
	lo, hi = max(pad-k, 0), in+pad-k
	if stride > 1 {
		lo = (lo + stride - 1) / stride
		hi = max((hi+stride-1)/stride, 0)
	}
	lo = min(lo, out)
	return lo, max(min(hi, out), lo)
}

// im2col writes sample src [c, h, w] into its column matrix dst [K, P].
// Every element is written (padding as zeros), so dst may be dirty.
func (g lowering) im2col(dst, src []float32) {
	p := g.pixels()
	for ch := 0; ch < g.c; ch++ {
		plane := src[ch*g.h*g.w : (ch+1)*g.h*g.w]
		for ky := 0; ky < g.kh; ky++ {
			ylo, yhi := span(g.h, g.oh, ky, g.stride, g.pad)
			for kx := 0; kx < g.kw; kx++ {
				tap := dst[((ch*g.kh+ky)*g.kw+kx)*p : ((ch*g.kh+ky)*g.kw+kx+1)*p]
				lo, hi := span(g.w, g.ow, kx, g.stride, g.pad)
				zeroFloats(tap[:ylo*g.ow])
				zeroFloats(tap[yhi*g.ow:])
				if g.stride == 1 && g.ow == g.w {
					g.im2colShift(tap, plane, ky, kx, ylo, yhi, lo, hi)
					continue
				}
				for oy := ylo; oy < yhi; oy++ {
					seg := tap[oy*g.ow : (oy+1)*g.ow]
					row := plane[(oy*g.stride-g.pad+ky)*g.w:][:g.w]
					zeroFloats(seg[:lo])
					zeroFloats(seg[hi:])
					ix := lo*g.stride - g.pad + kx
					if g.stride == 1 {
						copy(seg[lo:hi], row[ix:])
						continue
					}
					for ox := lo; ox < hi; ox++ {
						seg[ox] = row[ix]
						ix += g.stride
					}
				}
			}
		}
	}
}

// im2colShift fills output rows [ylo, yhi) of tap row (ky, kx) when the
// stride is 1 and output rows are as wide as input rows — every "same"
// convolution. The tap row is then the input plane shifted by
// d = (ky−pad)·w + kx − pad, so one copy fills it; the columns outside
// [lo, hi), which the shift wrapped across a row edge, are zeroed after.
func (g lowering) im2colShift(tap, plane []float32, ky, kx, ylo, yhi, lo, hi int) {
	d := (ky-g.pad)*g.w + kx - g.pad
	if a, b := max(ylo*g.ow, -d), min(yhi*g.ow, len(plane)-d); a < b {
		copy(tap[a:b], plane[a+d:b+d])
	}
	if lo == 0 && hi == g.ow {
		return
	}
	for oy := ylo; oy < yhi; oy++ {
		row := tap[oy*g.ow : (oy+1)*g.ow]
		zeroFloats(row[:lo])
		zeroFloats(row[hi:])
	}
}

// col2im is im2col's adjoint: it zeroes sample dst [c, h, w] and adds
// the column gradient src [K, P] into it. Each pixel adds its terms in
// (oy, ox) order, the order Col2ImNaive adds them in. Pixel (iy, ix)
// takes at most one term per tap (ky, kx), from output position
// oy = (iy + pad − ky)/stride, ox = (ix + pad − kx)/stride; oy falls as
// ky rises and ox falls as kx rises, so running ky descending, then kx
// descending, visits its terms in (oy, ox) order.
func (g lowering) col2im(dst, src []float32) {
	zeroFloats(dst)
	p := g.pixels()
	for ch := 0; ch < g.c; ch++ {
		plane := dst[ch*g.h*g.w : (ch+1)*g.h*g.w]
		for ky := g.kh - 1; ky >= 0; ky-- {
			ylo, yhi := span(g.h, g.oh, ky, g.stride, g.pad)
			taps := src[(ch*g.kh+ky)*g.kw*p : (ch*g.kh+ky+1)*g.kw*p]
			if g.fused3() {
				if ylo < yhi {
					g.col2im3(plane[(ylo-g.pad+ky)*g.w:], taps[:p], taps[p:2*p], taps[2*p:], ylo, yhi)
				}
				continue
			}
			for kx := g.kw - 1; kx >= 0; kx-- {
				lo, hi := span(g.w, g.ow, kx, g.stride, g.pad)
				tap := taps[kx*p : (kx+1)*p]
				for oy := ylo; oy < yhi; oy++ {
					row := plane[(oy*g.stride-g.pad+ky)*g.w:][:g.w]
					ix := lo*g.stride - g.pad + kx
					for _, v := range tap[oy*g.ow+lo : oy*g.ow+hi] {
						row[ix] += v
						ix += g.stride
					}
				}
			}
		}
	}
}

// col2im3 adds output rows [ylo, yhi) of the three tap rows s0, s1, s2
// (kx = 0, 1, 2) of a 3-wide, stride-1 window into consecutive image
// rows of dst, which starts at the image row of output row ylo. A pixel
// ix takes s2[ix+pad−2], s1[ix+pad−1], s0[ix+pad] in that order — ox
// ascending — so the three kx passes fuse into one with no regrouping.
func (g lowering) col2im3(dst, s0, s1, s2 []float32, ylo, yhi int) {
	lo := min(max(2-g.pad, 0), g.w)
	hi := max(min(g.w, g.ow-g.pad), lo)
	n := hi - lo
	for oy := ylo; oy < yhi; oy++ {
		row := dst[(oy-ylo)*g.w : (oy-ylo+1)*g.w]
		o := oy * g.ow
		r0, r1, r2 := s0[o:o+g.ow], s1[o:o+g.ow], s2[o:o+g.ow]
		for ix := 0; ix < lo; ix++ {
			g.col2im3Edge(row, r0, r1, r2, ix)
		}
		// Interior pixels take all three terms; the equal-length
		// reslices let the compiler drop the bounds checks.
		if n > 0 {
			d := row[lo:hi]
			t2 := r2[lo+g.pad-2 : lo+g.pad-2+n]
			t1 := r1[lo+g.pad-1 : lo+g.pad-1+n]
			t0 := r0[lo+g.pad : lo+g.pad+n]
			t2, t1, t0 = t2[:len(d)], t1[:len(d)], t0[:len(d)]
			for i, v := range d {
				d[i] = ((v + t2[i]) + t1[i]) + t0[i]
			}
		}
		for ix := hi; ix < g.w; ix++ {
			g.col2im3Edge(row, r0, r1, r2, ix)
		}
	}
}

// col2im3Edge adds pixel ix's terms, those whose output column exists,
// in col2im3's order.
func (g lowering) col2im3Edge(dst, s0, s1, s2 []float32, ix int) {
	o, v := ix+g.pad, dst[ix]
	if o-2 >= 0 && o-2 < g.ow {
		v += s2[o-2]
	}
	if o-1 >= 0 && o-1 < g.ow {
		v += s1[o-1]
	}
	if o < g.ow {
		v += s0[o]
	}
	dst[ix] = v
}

// checkConvW validates a [outC, K] kernel matrix and returns outC.
func checkConvW(op string, w *Tensor, k int) int {
	if len(w.shape) != 2 || w.shape[1] != k {
		panic(fmt.Sprintf("tensor: %s w shape %v, want [outC,%d]", op, w.shape, k))
	}
	return w.shape[0]
}

// checkCols validates a channel-major column scratch of lo to hi
// matrices and returns how many it holds.
func checkCols(op string, cols *Tensor, lo, hi int, g lowering) int {
	if len(cols.shape) != 3 || cols.shape[0] < lo || cols.shape[0] > hi || cols.shape[1] != g.taps() || cols.shape[2] != g.pixels() {
		panic(fmt.Sprintf("tensor: %s cols shape %v, want [%d..%d,%d,%d]", op, cols.shape, lo, hi, g.taps(), g.pixels()))
	}
	return cols.shape[0]
}

// checkNCHW validates an [n, c, oh, ow] tensor.
func checkNCHW(op string, t *Tensor, n, c, oh, ow int) {
	if len(t.shape) != 4 || t.shape[0] != n || t.shape[1] != c || t.shape[2] != oh || t.shape[3] != ow {
		panic(fmt.Sprintf("tensor: %s shape %v, want [%d,%d,%d,%d]", op, t.shape, n, c, oh, ow))
	}
}

// checkBias validates an optional [outC] bias and returns its data, nil
// for no bias.
func checkBias(op string, bias *Tensor, outC int) []float32 {
	if bias == nil {
		return nil
	}
	if bias.Size() != outC {
		panic(fmt.Sprintf("tensor: %s bias size %d, want %d", op, bias.Size(), outC))
	}
	return bias.data
}

// ConvColBlocks is how many blocks of scratch an eval-only forward
// over n samples needs, column matrices for ConvForwardInto or input
// copies for ConvEval's table route: one per worker that can run at
// once, since a worker lowers its samples one after another.
func ConvColBlocks(n int) int { return min(n, parallel.Workers()) }

// ConvForwardInto computes the convolution of x [n, c, h, w] with the
// kernel matrix w [outC, c·kh·kw] plus an optional bias [outC] into dst
// [n, outC, oh, ow]. cols [b, c·kh·kw, oh·ow] is column scratch in one
// of two layouts. With b = n, every sample keeps its own column matrix,
// which ConvWeightGradAcc reads in the backward pass. With 1 ≤ b < n
// (ConvColBlocks(n) for an eval-only forward), the samples split into b
// contiguous runs that each lower through one matrix in turn. dst and
// cols are fully overwritten, so both may be dirty. The work fans out
// over the b runs; the output is the same in either layout.
//
// A train forward must come here: the column matrices it leaves are
// what the weight gradient reads. An eval-only forward may instead run
// ConvEval, whose table route builds no column matrix where the
// geometry and the kernel arm allow it, with the same bits.
func ConvForwardInto(dst, cols, x, w, bias *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, wd, _, _ := convGeom("ConvForwardInto", x, kh, kw, stride, pad)
	g := newLowering(c, h, wd, kh, kw, stride, pad)
	outC := checkConvW("ConvForwardInto", w, g.taps())
	checkNCHW("ConvForwardInto dst", dst, n, outC, g.oh, g.ow)
	nb := checkCols("ConvForwardInto", cols, 1, n, g)
	bd := checkBias("ConvForwardInto", bias, outC)
	od, cd, xd, wtd := dst.data, cols.data, x.data, w.data
	work := n * outC * g.taps() * g.pixels()
	if serialRows(nb, work) {
		convForwardRange(od, cd, xd, wtd, bd, g, outC, n, nb, 0, nb)
		return dst
	}
	parallelRows(nb, work, func(b0, b1 int) {
		convForwardRange(od, cd, xd, wtd, bd, g, outC, n, nb, b0, b1)
	})
	return dst
}

// ConvEval is an eval-only convolution forward with scratch it keeps
// between calls. A layer holds one and reuses it; the zero value is
// ready. Its Forward takes one of two routes, chosen per call:
//
//   - the table route, for stride-1 convolutions whose output is whole
//     tiles of the AVX-512 arm (outC % 8 == 0, oh·ow % 16 == 0, see
//     kernels.TableTile): no column matrix at all. Each sample is
//     copied kw times into [kw, c, h+2·pad, ow] scratch, copy kx
//     shifted by kx − pad with zeros where the shift leaves the image
//     and pad zero rows above and below each plane, so that
//     copy[kx][ch][r][ox] = x[ch][r−pad][ox+kx−pad]. Tap (ch, ky, kx)
//     is then the contiguous run of oh·ow floats from row ky of copy
//     kx, and kernels.GemmTable reads the K taps through an offset
//     table, in W's (ch, ky, kx) column order, writing the NCHW block
//     and adding the bias in the tile's store. A block's scratch is
//     kw·c·(h+2·pad)·ow floats against K·P for a column matrix.
//   - every other convolution (stride > 1, other tails, hosts or builds
//     without the AVX-512 tile) runs ConvForwardInto with one column
//     matrix per block, ConvColBlocks(n) of them.
//
// Both routes give ConvForwardInto's bits: each output is one chain
// over the same taps in the same order from +0, the padding the table
// reads is the +0 im2col writes, and the bias is the same one add
// after the chain. Training cannot take the table route: the weight
// gradient reads every sample's column matrix, which only im2col
// writes.
type ConvEval struct {
	g       lowering // the table layout's geometry; zero while scratch holds column matrices
	blocks  int      // blocks of copies laid out in scratch
	off     []int    // the table route's tap offsets into one block, [K]
	scratch *Tensor  // per-block input copies, or the fallback's column matrices
}

// Forward computes the convolution of x [n, c, h, w] with the kernel
// matrix w [outC, c·kh·kw] plus an optional bias [outC] into dst
// [n, outC, oh, ow], bit-identical to ConvForwardInto. dst is fully
// overwritten. The samples split into ConvColBlocks(n) contiguous runs
// that fan out over the workers, one block of scratch each.
func (e *ConvEval) Forward(dst, x, w, bias *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, wd, oh, ow := convGeom("ConvEval.Forward", x, kh, kw, stride, pad)
	g := newLowering(c, h, wd, kh, kw, stride, pad)
	outC := checkConvW("ConvEval.Forward", w, g.taps())
	nb := ConvColBlocks(n)
	if stride != 1 || !kernels.TableTile(outC, oh*ow) {
		e.g = lowering{}
		e.scratch = EnsureShape(e.scratch, nb, g.taps(), oh*ow)
		return ConvForwardInto(dst, e.scratch, x, w, bias, kh, kw, stride, pad)
	}
	checkNCHW("ConvEval.Forward dst", dst, n, outC, oh, ow)
	bd := checkBias("ConvEval.Forward", bias, outC)
	e.layout(g, nb)
	od, sd, xd, wtd, off := dst.data, e.scratch.data, x.data, w.data, e.off
	work := n * outC * g.taps() * g.pixels()
	if serialRows(nb, work) {
		convTableRange(od, sd, xd, wtd, bd, off, g, outC, n, nb, 0, nb)
		return dst
	}
	parallelRows(nb, work, func(b0, b1 int) {
		convTableRange(od, sd, xd, wtd, bd, off, g, outC, n, nb, b0, b1)
	})
	return dst
}

// layout lays the scratch out for nb blocks of copies of geometry g and
// builds the tap table, keeping the last layout while it still fits. A
// fresh layout is zeroed once: the copies' pad rows are never written
// after that.
func (e *ConvEval) layout(g lowering, nb int) {
	if g == e.g && nb <= e.blocks {
		return
	}
	e.g, e.blocks = g, nb
	e.scratch = EnsureShape(e.scratch, nb, g.kw*g.copyLen())
	zeroFloats(e.scratch.data)
	e.off = e.off[:0]
	rows := g.h + 2*g.pad
	for ch := 0; ch < g.c; ch++ {
		for ky := 0; ky < g.kh; ky++ {
			for kx := 0; kx < g.kw; kx++ {
				e.off = append(e.off, kx*g.copyLen()+(ch*rows+ky)*g.ow)
			}
		}
	}
}

// copyLen is the length of one of the table route's shifted input
// copies: c planes of h+2·pad rows, ow wide.
func (g lowering) copyLen() int { return g.c * (g.h + 2*g.pad) * g.ow }

// copies writes sample src [c, h, w] into rows [pad, pad+h) of its kw
// shifted copies in dst [kw, c, h+2·pad, ow] (see ConvEval), zeros
// included; the pad rows above and below are left as they are. The
// stride is 1.
func (g lowering) copies(dst, src []float32) {
	rows, plane := g.h+2*g.pad, g.h*g.w
	for kx := 0; kx < g.kw; kx++ {
		lo, hi := span(g.w, g.ow, kx, 1, g.pad)
		d := kx - g.pad
		for ch := 0; ch < g.c; ch++ {
			in := src[ch*plane : (ch+1)*plane]
			out := dst[(kx*g.c*rows+ch*rows+g.pad)*g.ow:][:g.h*g.ow]
			if g.ow == g.w {
				// A "same" convolution: the copy is the plane shifted by
				// d, so one copy fills it and the columns the shift
				// wrapped across a row edge are zeroed after.
				if a, b := max(-d, 0), min(plane, plane-d); a < b {
					copy(out[a:b], in[a+d:b+d])
				}
				zeroCols(out, g.ow, 0, lo)
				zeroCols(out, g.ow, hi, g.ow)
				continue
			}
			for y := 0; y < g.h; y++ {
				seg := out[y*g.ow : (y+1)*g.ow]
				zeroFloats(seg[:lo])
				copy(seg[lo:hi], in[y*g.w+lo+d:])
				zeroFloats(seg[hi:])
			}
		}
	}
}

// zeroCols zeroes columns [c0, c1) of every width-wide row of s, one
// column at a time: the edges are a column or two, so a strided loop
// beats a zeroing call per row.
func zeroCols(s []float32, width, c0, c1 int) {
	for c := c0; c < c1; c++ {
		for i := c; i < len(s); i += width {
			s[i] = 0
		}
	}
}

// convTableRange convolves the samples of blocks [b0, b1) of nb on the
// table route: block b serves samples [b·n/nb, (b+1)·n/nb) one after
// another, each copied into the block's scratch and multiplied through
// the tap table straight into its NCHW block, bias included.
func convTableRange(od, sd, xd, wd, bd []float32, off []int, g lowering, outC, n, nb, b0, b1 int) {
	k, p, in, per := g.taps(), g.pixels(), g.c*g.h*g.w, g.kw*g.copyLen()
	for blk := b0; blk < b1; blk++ {
		buf := sd[blk*per : (blk+1)*per]
		for s := blk * n / nb; s < (blk+1)*n/nb; s++ {
			g.copies(buf, xd[s*in:(s+1)*in])
			kernels.GemmTable(od[s*outC*p:(s+1)*outC*p], wd, buf, off, bd, outC, k, p)
		}
	}
}

// convForwardRange lowers and convolves the samples of column blocks
// [b0, b1) of nb: block b serves samples [b·n/nb, (b+1)·n/nb) one after
// another, with one GEMM per sample straight into its NCHW block, then
// the bias per output row.
func convForwardRange(od, cd, xd, wd, bd []float32, g lowering, outC, n, nb, b0, b1 int) {
	k, p, in := g.taps(), g.pixels(), g.c*g.h*g.w
	for blk := b0; blk < b1; blk++ {
		cols := cd[blk*k*p : (blk+1)*k*p]
		for s := blk * n / nb; s < (blk+1)*n/nb; s++ {
			g.im2col(cols, xd[s*in:(s+1)*in])
			out := od[s*outC*p : (s+1)*outC*p]
			kernels.GemmPanel(out, wd, cols, 0, outC, k, p, 0, false)
			for oc, b := range bd {
				row := out[oc*p : (oc+1)*p]
				for i, v := range row {
					row[i] = v + b
				}
			}
		}
	}
}

// ConvWeightGradAcc accumulates the kernel gradient gw [outC, K] +=
// Σ_n grad_n · colsT_nᵀ, where cols [n, K, P] holds the forward's column
// matrices and grad [n, outC, oh, ow] is the output gradient. Every
// grad_n is packed once as [P, outC] into pooled scratch and gw is
// transposed into more; gwᵀ then takes colsT_n · grad_nᵀ sample by
// sample, in sample order, and is written back. The products fan out
// over rows of gwᵀ; each worker walks every sample.
func ConvWeightGradAcc(gw, cols, grad *Tensor) *Tensor {
	if len(cols.shape) != 3 || len(gw.shape) != 2 || gw.shape[1] != cols.shape[1] {
		panic(fmt.Sprintf("tensor: ConvWeightGradAcc gw %v, cols %v", gw.shape, cols.shape))
	}
	n, k, p, outC := cols.shape[0], cols.shape[1], cols.shape[2], gw.shape[0]
	if len(grad.shape) != 4 || grad.shape[0] != n || grad.shape[1] != outC || grad.shape[2]*grad.shape[3] != p {
		panic(fmt.Sprintf("tensor: ConvWeightGradAcc grad shape %v, want [%d,%d,oh,ow] with oh·ow = %d", grad.shape, n, outC, p))
	}
	gt, rd := Default.GetBuf(k*outC), Default.GetBuf(n*p*outC)
	transpose(gt, gw.data, 1, outC, k)
	transpose(rd, grad.data, n, outC, p)
	cd := cols.data
	if work := n * k * p * outC; serialRows(k, work) {
		convWeightGradRange(gt, cd, rd, n, k, p, outC, 0, k)
	} else {
		parallelRows(k, work, func(r0, r1 int) {
			convWeightGradRange(gt, cd, rd, n, k, p, outC, r0, r1)
		})
	}
	transpose(gw.data, gt, 1, k, outC)
	Default.PutBuf(rd)
	Default.PutBuf(gt)
	return gw
}

// convWeightGradRange accumulates rows [r0, r1) of gwᵀ over every
// sample, in sample order. rd holds the packed grad_nᵀ, [P, outC] each.
func convWeightGradRange(gt, cd, rd []float32, n, k, p, outC, r0, r1 int) {
	for s := 0; s < n; s++ {
		kernels.GemmPanel(gt, cd[s*k*p:(s+1)*k*p], rd[s*p*outC:(s+1)*p*outC], r0, r1, p, outC, 0, true)
	}
}

// ConvBiasGradAcc accumulates the bias gradient db [outC] +=
// Σ_n Σ_p grad[n, oc, p] straight from the NCHW output gradient. Each
// db[oc] is one chain over n, then p: the order SumRowsAcc walks the
// rows layout [n·P, outC] in, so the bits match it. Four
// channels run interleaved so the chains overlap.
func ConvBiasGradAcc(db, grad *Tensor) *Tensor {
	if len(grad.shape) != 4 || db.Size() != grad.shape[1] {
		panic(fmt.Sprintf("tensor: ConvBiasGradAcc db %v, grad %v", db.shape, grad.shape))
	}
	n, c, p := grad.shape[0], grad.shape[1], grad.shape[2]*grad.shape[3]
	bd, gd := db.data, grad.data
	oc := 0
	for ; oc+4 <= c; oc += 4 {
		u0, u1, u2, u3 := bd[oc], bd[oc+1], bd[oc+2], bd[oc+3]
		for s := 0; s < n; s++ {
			r0 := gd[(s*c+oc)*p : (s*c+oc+1)*p]
			r1 := gd[(s*c+oc+1)*p : (s*c+oc+2)*p]
			r2 := gd[(s*c+oc+2)*p : (s*c+oc+3)*p]
			r3 := gd[(s*c+oc+3)*p : (s*c+oc+4)*p]
			r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
			for i, v := range r0 {
				u0 += v
				u1 += r1[i]
				u2 += r2[i]
				u3 += r3[i]
			}
		}
		bd[oc], bd[oc+1], bd[oc+2], bd[oc+3] = u0, u1, u2, u3
	}
	for ; oc < c; oc++ {
		u := bd[oc]
		for s := 0; s < n; s++ {
			for _, v := range gd[(s*c+oc)*p : (s*c+oc+1)*p] {
				u += v
			}
		}
		bd[oc] = u
	}
	return db
}

// ConvInputGradInto computes the input gradient dx [n, c, h, w] of a
// convolution from its output gradient grad [n, outC, oh, ow] and
// kernel matrix w [outC, c·kh·kw]. dCols [n, c·kh·kw, oh·ow] is scratch
// for the column gradients. dx and dCols are fully overwritten, so both
// may be dirty. The work fans out over samples.
func ConvInputGradInto(dx, dCols, grad, w *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, wd, _, _ := convGeom("ConvInputGradInto", dx, kh, kw, stride, pad)
	g := newLowering(c, h, wd, kh, kw, stride, pad)
	k, p := g.taps(), g.pixels()
	outC := checkConvW("ConvInputGradInto", w, k)
	checkNCHW("ConvInputGradInto grad", grad, n, outC, g.oh, g.ow)
	checkCols("ConvInputGradInto", dCols, n, n, g)
	wt := Default.GetBuf(k * outC)
	transpose(wt, w.data, 1, outC, k)
	xd, cd, gd := dx.data, dCols.data, grad.data
	if work := n * k * p * outC; serialRows(n, work) {
		convInputGradRange(xd, cd, gd, wt, g, outC, 0, n)
	} else {
		parallelRows(n, work, func(n0, n1 int) {
			convInputGradRange(xd, cd, gd, wt, g, outC, n0, n1)
		})
	}
	Default.PutBuf(wt)
	return dx
}

// convInputGradRange computes samples [n0, n1): the column gradient
// Wᵀ · grad_n, then col2im into the sample's image block. wt is Wᵀ,
// [K, outC].
func convInputGradRange(xd, cd, gd, wt []float32, g lowering, outC, n0, n1 int) {
	k, p, in := g.taps(), g.pixels(), g.c*g.h*g.w
	for s := n0; s < n1; s++ {
		dcols := cd[s*k*p : (s+1)*k*p]
		kernels.GemmPanel(dcols, wt, gd[s*outC*p:(s+1)*outC*p], 0, k, outC, p, 0, false)
		g.col2im(xd[s*in:(s+1)*in], dcols)
	}
}
