package tensor

import (
	"fmt"

	"medsplit/internal/tensor/kernels"
)

// ConvOutSize returns the spatial output size of a convolution or pooling
// window: floor((in + 2*pad - kernel)/stride) + 1. It panics if the
// geometry is degenerate (non-positive output).
func ConvOutSize(in, kernel, stride, pad int) int {
	if stride <= 0 {
		panic(fmt.Sprintf("tensor: non-positive stride %d", stride))
	}
	out := (in+2*pad-kernel)/stride + 1
	if out <= 0 {
		panic(fmt.Sprintf("tensor: convolution output size %d for in=%d kernel=%d stride=%d pad=%d", out, in, kernel, stride, pad))
	}
	return out
}

// convGeom validates a rank-4 NCHW input and returns its dimensions plus
// the output spatial size for the given window.
func convGeom(op string, x *Tensor, kh, kw, stride, pad int) (n, c, h, w, oh, ow int) {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: %s needs rank-4 NCHW input, got %v", op, x.shape))
	}
	n, c, h, w = x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh = ConvOutSize(h, kh, stride, pad)
	ow = ConvOutSize(w, kw, stride, pad)
	return
}

// Im2Col lowers a batched NCHW image tensor into the column matrix used to
// express convolution as matrix multiplication. For x of shape
// [n, c, h, w] and a kh×kw kernel, the result has shape
// [n*oh*ow, c*kh*kw]: row (n, oy, ox) holds the receptive field of output
// pixel (oy, ox) of sample n, with zero padding outside the image.
//
// The kernel fans out over batch × output-row strips (each worker owns
// disjoint column-matrix rows), so large lowerings scale with GOMAXPROCS.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, _, _, oh, ow := convGeom("Im2Col", x, kh, kw, stride, pad)
	cols := New(n*oh*ow, c*kh*kw)
	im2col(cols, x, kh, kw, stride, pad)
	return cols
}

// Im2ColInto is Im2Col writing into dst, which must have shape
// [n*oh*ow, c*kh*kw]. Every element of dst is overwritten (padding
// positions are stored as zeros), so dst may be dirty pooled storage.
func Im2ColInto(dst, x *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, _, _, oh, ow := convGeom("Im2ColInto", x, kh, kw, stride, pad)
	if len(dst.shape) != 2 || dst.shape[0] != n*oh*ow || dst.shape[1] != c*kh*kw {
		panic(fmt.Sprintf("tensor: Im2ColInto dst shape %v, want [%d,%d]", dst.shape, n*oh*ow, c*kh*kw))
	}
	im2col(dst, x, kh, kw, stride, pad)
	return dst
}

func im2col(dst, x *Tensor, kh, kw, stride, pad int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	rowLen := c * kh * kw
	xd, dd := x.data, dst.data
	// One unit of work is an (in, oy) strip: ow consecutive rows of the
	// column matrix. Strips touch disjoint output rows, so workers never
	// overlap. The serial guard runs before the closure is built so
	// small shapes pay no per-call allocation (see serialRows).
	work := n * oh * ow * rowLen
	if serialRows(n*oh, work) {
		im2colRange(dd, xd, c, h, w, oh, ow, kh, kw, stride, pad, 0, n*oh)
		return
	}
	parallelRows(n*oh, work, func(u0, u1 int) {
		im2colRange(dd, xd, c, h, w, oh, ow, kh, kw, stride, pad, u0, u1)
	})
}

// im2colRange fills column-matrix strips [u0,u1), one strip per (in, oy)
// pair. Within a strip the nest runs (ch, ky, ox): a kernel row's source
// image row is sliced once and dealt out to the strip's ow matrix rows.
// For the 3-wide kernels every model's spatial convs use, windows wholly
// inside the image copy with no per-element bounds test.
func im2colRange(dd, xd []float32, c, h, w, oh, ow, kh, kw, stride, pad, u0, u1 int) {
	rowLen := c * kh * kw
	oxLo, oxHi := interiorCols(w, ow, kw, stride, pad)
	for u := u0; u < u1; u++ {
		in, oy := u/oh, u%oh
		iy0 := oy*stride - pad
		strip := dd[u*ow*rowLen : (u+1)*ow*rowLen]
		for ch := 0; ch < c; ch++ {
			chBase := (in*c + ch) * h * w
			for ky := 0; ky < kh; ky++ {
				iy := iy0 + ky
				col := (ch*kh + ky) * kw
				if iy < 0 || iy >= h {
					for ox := 0; ox < ow; ox++ {
						zeroFloats(strip[ox*rowLen+col : ox*rowLen+col+kw]) // padding
					}
					continue
				}
				src := xd[chBase+iy*w : chBase+(iy+1)*w]
				for ox := 0; ox < oxLo; ox++ {
					im2colEdge(strip[ox*rowLen+col:ox*rowLen+col+kw], src, ox*stride-pad)
				}
				off, ix0 := oxLo*rowLen+col, oxLo*stride-pad
				for ox := oxLo; ox < oxHi; ox++ {
					seg := strip[off : off+3 : off+3]
					win := src[ix0 : ix0+3 : ix0+3]
					seg[0], seg[1], seg[2] = win[0], win[1], win[2]
					off += rowLen
					ix0 += stride
				}
				for ox := oxHi; ox < ow; ox++ {
					im2colEdge(strip[ox*rowLen+col:ox*rowLen+col+kw], src, ox*stride-pad)
				}
			}
		}
	}
}

// im2colEdge copies one window segment that may overhang the source row
// (which starts at column ix0), storing zeros outside it.
func im2colEdge(seg, src []float32, ix0 int) {
	for kx := range seg {
		if ix := ix0 + kx; ix >= 0 && ix < len(src) {
			seg[kx] = src[ix]
		} else {
			seg[kx] = 0
		}
	}
}

// interiorCols returns the output columns [lo, hi) that take the
// whole-window fast path: those whose window lies wholly inside a
// w-wide image row (ox*stride-pad >= 0 and ox*stride-pad+kw <= w), when
// the window is 3 wide. Other widths, and every column outside the
// range, take the bounds-checked edge loop.
func interiorCols(w, ow, kw, stride, pad int) (lo, hi int) {
	lo = min((pad+stride-1)/stride, ow)
	hi = lo
	if last := w - kw + pad; kw == 3 && last >= 0 {
		hi = max(min(last/stride+1, ow), lo)
	}
	return lo, hi
}

// Im2ColNaive is the retained single-threaded reference implementation;
// the differential tests verify the parallel kernel against it.
func Im2ColNaive(x *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, w, oh, ow := convGeom("Im2ColNaive", x, kh, kw, stride, pad)
	cols := New(n*oh*ow, c*kh*kw)
	rowLen := c * kh * kw
	for in := 0; in < n; in++ {
		imgBase := in * c * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*stride - pad
				row := cols.data[((in*oh+oy)*ow+ox)*rowLen:][:rowLen]
				for ch := 0; ch < c; ch++ {
					chBase := imgBase + ch*h*w
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						dst := row[(ch*kh+ky)*kw : (ch*kh+ky)*kw+kw]
						if iy < 0 || iy >= h {
							continue // stays zero (padding)
						}
						srcRow := x.data[chBase+iy*w : chBase+(iy+1)*w]
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix >= 0 && ix < w {
								dst[kx] = srcRow[ix]
							}
						}
					}
				}
			}
		}
	}
	return cols
}

// Col2Im is the adjoint of Im2Col: it scatters column-matrix gradients
// back into an NCHW image tensor of shape [n, c, h, w], accumulating
// where receptive fields overlap. Together with Im2Col it satisfies
// <Im2Col(x), g> == <x, Col2Im(g)> — the property the convolution
// backward pass depends on (verified in tests).
//
// Receptive fields overlap within a sample but never across samples, so
// the kernel fans out over the batch dimension.
func Col2Im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	img := New(n, c, h, w)
	col2imInto(img, cols, kh, kw, stride, pad, false)
	return img
}

// Col2ImInto is Col2Im writing into dst, which must have shape
// [n, c, h, w]. dst is zeroed before accumulation, so it may be dirty
// pooled storage.
func Col2ImInto(dst, cols *Tensor, kh, kw, stride, pad int) *Tensor {
	if len(dst.shape) != 4 {
		panic(fmt.Sprintf("tensor: Col2ImInto dst must be rank-4 NCHW, got %v", dst.shape))
	}
	col2imInto(dst, cols, kh, kw, stride, pad, true)
	return dst
}

func col2imInto(img, cols *Tensor, kh, kw, stride, pad int, zeroFirst bool) {
	n, c, h, w := img.shape[0], img.shape[1], img.shape[2], img.shape[3]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	rowLen := c * kh * kw
	if len(cols.shape) != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: Col2Im shape %v does not match [%d,%d]", cols.shape, n*oh*ow, rowLen))
	}
	cd, id := cols.data, img.data
	work := n * oh * ow * rowLen
	if serialRows(n, work) {
		col2imRange(id, cd, c, h, w, oh, ow, kh, kw, stride, pad, zeroFirst, 0, n)
		return
	}
	parallelRows(n, work, func(n0, n1 int) {
		col2imRange(id, cd, c, h, w, oh, ow, kh, kw, stride, pad, zeroFirst, n0, n1)
	})
}

// col2imRange scatters column-matrix gradients back into image samples
// [n0,n1). The nest runs (oy, ch, ky, ox) — im2colRange's strip order,
// with the same whole-window fast path — and still adds each pixel's
// contributions in (oy, ox) order, the order Col2ImNaive adds them in:
// a pixel takes at most one term per output position, the loops only
// move, and no sum is regrouped, so the result is bit-identical.
func col2imRange(id, cd []float32, c, h, w, oh, ow, kh, kw, stride, pad int, zeroFirst bool, n0, n1 int) {
	rowLen := c * kh * kw
	oxLo, oxHi := interiorCols(w, ow, kw, stride, pad)
	for in := n0; in < n1; in++ {
		imgBase := in * c * h * w
		if zeroFirst {
			zeroFloats(id[imgBase : imgBase+c*h*w])
		}
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - pad
			u := in*oh + oy
			strip := cd[u*ow*rowLen : (u+1)*ow*rowLen]
			for ch := 0; ch < c; ch++ {
				chBase := imgBase + ch*h*w
				for ky := 0; ky < kh; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= h {
						continue
					}
					col := (ch*kh + ky) * kw
					dst := id[chBase+iy*w : chBase+(iy+1)*w]
					for ox := 0; ox < oxLo; ox++ {
						col2imEdge(dst, strip[ox*rowLen+col:ox*rowLen+col+kw], ox*stride-pad)
					}
					off, ix0 := oxLo*rowLen+col, oxLo*stride-pad
					for ox := oxLo; ox < oxHi; ox++ {
						seg := strip[off : off+3 : off+3]
						win := dst[ix0 : ix0+3 : ix0+3]
						win[0] += seg[0]
						win[1] += seg[1]
						win[2] += seg[2]
						off += rowLen
						ix0 += stride
					}
					for ox := oxHi; ox < ow; ox++ {
						col2imEdge(dst, strip[ox*rowLen+col:ox*rowLen+col+kw], ox*stride-pad)
					}
				}
			}
		}
	}
}

// col2imEdge adds one window segment that may overhang the image row
// dst (the window starts at column ix0), dropping the overhang.
func col2imEdge(dst, seg []float32, ix0 int) {
	for kx, v := range seg {
		if ix := ix0 + kx; ix >= 0 && ix < len(dst) {
			dst[ix] += v
		}
	}
}

// Col2ImNaive is the retained single-threaded reference implementation.
func Col2ImNaive(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	rowLen := c * kh * kw
	if len(cols.shape) != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: Col2ImNaive shape %v does not match [%d,%d]", cols.shape, n*oh*ow, rowLen))
	}
	img := New(n, c, h, w)
	for in := 0; in < n; in++ {
		imgBase := in * c * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*stride - pad
				row := cols.data[((in*oh+oy)*ow+ox)*rowLen:][:rowLen]
				for ch := 0; ch < c; ch++ {
					chBase := imgBase + ch*h*w
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						src := row[(ch*kh+ky)*kw : (ch*kh+ky)*kw+kw]
						dstRow := img.data[chBase+iy*w : chBase+(iy+1)*w]
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix >= 0 && ix < w {
								dstRow[ix] += src[kx]
							}
						}
					}
				}
			}
		}
	}
	return img
}

// RowsToNCHW repacks a [n*oh*ow, c] matrix (the output layout of
// Im2Col-based convolution) into an NCHW tensor [n, c, oh, ow].
func RowsToNCHW(rows *Tensor, n, c, oh, ow int) *Tensor {
	out := New(n, c, oh, ow)
	return RowsToNCHWInto(out, rows)
}

// RowsToNCHWInto is RowsToNCHW writing into dst, whose shape
// [n, c, oh, ow] supplies the geometry. Every element is overwritten.
func RowsToNCHWInto(dst, rows *Tensor) *Tensor {
	if len(dst.shape) != 4 {
		panic(fmt.Sprintf("tensor: RowsToNCHWInto dst must be rank-4, got %v", dst.shape))
	}
	n, c, oh, ow := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	if len(rows.shape) != 2 || rows.shape[0] != n*oh*ow || rows.shape[1] != c {
		panic(fmt.Sprintf("tensor: RowsToNCHW shape %v does not match [%d,%d]", rows.shape, n*oh*ow, c))
	}
	rd, od := rows.data, dst.data
	if serialRows(n*oh, n*oh*ow*c) {
		rowsToNCHWRange(od, rd, c, oh, ow, 0, n*oh)
		return dst
	}
	parallelRows(n*oh, n*oh*ow*c, func(u0, u1 int) {
		rowsToNCHWRange(od, rd, c, oh, ow, u0, u1)
	})
	return dst
}

func rowsToNCHWRange(od, rd []float32, c, oh, ow, u0, u1 int) {
	for u := u0; u < u1; u++ {
		in, oy := u/oh, u%oh
		for ox := 0; ox < ow; ox++ {
			src := rd[(u*ow+ox)*c:][:c]
			for ch := 0; ch < c; ch++ {
				od[((in*c+ch)*oh+oy)*ow+ox] = src[ch]
			}
		}
	}
}

// NCHWToRows is the inverse of RowsToNCHW: it flattens an NCHW tensor
// [n, c, oh, ow] into the [n*oh*ow, c] matrix layout.
func NCHWToRows(x *Tensor) *Tensor {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: NCHWToRows needs rank-4 input, got %v", x.shape))
	}
	n, c, oh, ow := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := New(n*oh*ow, c)
	return NCHWToRowsInto(out, x)
}

// NCHWToRowsInto is NCHWToRows writing into dst of shape [n*oh*ow, c].
// Every element is overwritten.
func NCHWToRowsInto(dst, x *Tensor) *Tensor {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: NCHWToRowsInto needs rank-4 input, got %v", x.shape))
	}
	n, c, oh, ow := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if len(dst.shape) != 2 || dst.shape[0] != n*oh*ow || dst.shape[1] != c {
		panic(fmt.Sprintf("tensor: NCHWToRowsInto dst shape %v, want [%d,%d]", dst.shape, n*oh*ow, c))
	}
	xd, od := x.data, dst.data
	if serialRows(n*oh, n*oh*ow*c) {
		nchwToRowsRange(od, xd, c, oh, ow, 0, n*oh)
		return dst
	}
	parallelRows(n*oh, n*oh*ow*c, func(u0, u1 int) {
		nchwToRowsRange(od, xd, c, oh, ow, u0, u1)
	})
	return dst
}

func nchwToRowsRange(od, xd []float32, c, oh, ow, u0, u1 int) {
	for u := u0; u < u1; u++ {
		in, oy := u/oh, u%oh
		for ox := 0; ox < ow; ox++ {
			row := od[(u*ow+ox)*c:][:c]
			for ch := 0; ch < c; ch++ {
				row[ch] = xd[((in*c+ch)*oh+oy)*ow+ox]
			}
		}
	}
}

// ConvGemmInto fuses the three tail stages of an im2col convolution
// forward pass — the cols·wᵀ GEMM, the bias broadcast, and the
// rows→NCHW repack — into one kernel that writes the NCHW output
// directly. cols is the [n*oh*ow, inC*kh*kw] column matrix, w the
// [outC, inC*kh*kw] kernel matrix, bias an optional [outC] vector, and
// dst the [n, outC, oh, ow] output (fully overwritten; dirty pooled
// storage is fine). Skipping the [n*oh*ow, outC] intermediate saves two
// full passes over the activation volume per forward call.
func ConvGemmInto(dst, cols, w, bias *Tensor) *Tensor {
	if len(dst.shape) != 4 {
		panic(fmt.Sprintf("tensor: ConvGemmInto dst must be rank-4, got %v", dst.shape))
	}
	n, outC, oh, ow := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	if len(w.shape) != 2 || w.shape[0] != outC {
		panic(fmt.Sprintf("tensor: ConvGemmInto w shape %v, want [%d,k]", w.shape, outC))
	}
	k := w.shape[1]
	if len(cols.shape) != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != k {
		panic(fmt.Sprintf("tensor: ConvGemmInto cols shape %v, want [%d,%d]", cols.shape, n*oh*ow, k))
	}
	var bd []float32
	if bias != nil {
		if bias.Size() != outC {
			panic(fmt.Sprintf("tensor: ConvGemmInto bias size %d, want %d", bias.Size(), outC))
		}
		bd = bias.data
	}
	cd, wd, od := cols.data, w.data, dst.data
	work := n * oh * ow * outC * k
	// With vector kernels active and enough output channels to fill
	// vector lanes, run the GEMM through the kernel layer: wᵀ is
	// materialized once (O(outC·k)) so the panel kernel can vectorize
	// across output channels, each strip's [ow, outC] product lands in
	// small pooled scratch, and the bias+NCHW repack becomes a cheap
	// tail pass. Per-element accumulation order over k is unchanged, so
	// the result stays bit-identical to the scalar fused kernel.
	if kernels.Active() && outC >= 8 {
		wt := Default.GetBuf(k * outC)
		transposeRange(wt, wd, outC, k, 0, k)
		if serialRows(n*oh, work) {
			convGemmVecRange(od, cd, wt, bd, outC, k, oh, ow, 0, n*oh)
		} else {
			parallelRows(n*oh, work, func(u0, u1 int) {
				convGemmVecRange(od, cd, wt, bd, outC, k, oh, ow, u0, u1)
			})
		}
		Default.PutBuf(wt)
		return dst
	}
	// Scalar path: fan out over (sample, output-row) strips as in
	// im2col. Each strip reads its cols rows once and streams the kernel
	// matrix per pixel with a 4-wide output-channel register tile, so
	// each loaded column value feeds four dot products. (A 2-pixel ×
	// 4-channel tile was measured slower here: its fourteen live values
	// spill registers.)
	if serialRows(n*oh, work) {
		convGemmRange(od, cd, wd, bd, outC, k, oh, ow, 0, n*oh)
		return dst
	}
	parallelRows(n*oh, work, func(u0, u1 int) {
		convGemmRange(od, cd, wd, bd, outC, k, oh, ow, u0, u1)
	})
	return dst
}

// convGemmVecRange computes output strips [u0,u1) through the vector
// kernel layer: per strip, a [ow, outC] GEMM into pooled scratch
// (contraction blocked on gemmKC panels, one sequential chain per
// element), then bias and the rows→NCHW repack. wt is wᵀ, [k, outC].
func convGemmVecRange(od, cd, wt, bd []float32, outC, k, oh, ow, u0, u1 int) {
	plane := oh * ow
	tmp := Default.GetBuf(ow * outC)
	for u := u0; u < u1; u++ {
		in, oy := u/oh, u%oh
		for p0 := 0; p0 < k; p0 += gemmKC {
			kb := min(gemmKC, k-p0)
			kernels.GemmPanelK(tmp, cd, wt[p0*outC:], 0, ow, kb, outC, k, u*ow*k+p0, p0 > 0)
		}
		outBase := in*outC*plane + oy*ow
		for ox := 0; ox < ow; ox++ {
			row := tmp[ox*outC : ox*outC+outC]
			if bd != nil {
				for oc, v := range row {
					od[outBase+oc*plane+ox] = v + bd[oc]
				}
			} else {
				for oc, v := range row {
					od[outBase+oc*plane+ox] = v
				}
			}
		}
	}
	Default.PutBuf(tmp)
}

// convGemmRange computes output strips [u0,u1) of the fused
// GEMM+bias+repack pass, one strip per (in, oy) pair.
func convGemmRange(od, cd, wd, bd []float32, outC, k, oh, ow, u0, u1 int) {
	plane := oh * ow
	for u := u0; u < u1; u++ {
		in, oy := u/oh, u%oh
		outBase := in*outC*plane + oy*ow
		for ox := 0; ox < ow; ox++ {
			crow := cd[(u*ow+ox)*k:][:k]
			oc := 0
			for ; oc+4 <= outC; oc += 4 {
				w0 := wd[(oc+0)*k : (oc+0)*k+k]
				w1 := wd[(oc+1)*k : (oc+1)*k+k]
				w2 := wd[(oc+2)*k : (oc+2)*k+k]
				w3 := wd[(oc+3)*k : (oc+3)*k+k]
				w0 = w0[:len(crow)]
				w1 = w1[:len(crow)]
				w2 = w2[:len(crow)]
				w3 = w3[:len(crow)]
				var s0, s1, s2, s3 float32
				for p, cv := range crow {
					s0 += cv * w0[p]
					s1 += cv * w1[p]
					s2 += cv * w2[p]
					s3 += cv * w3[p]
				}
				if bd != nil {
					s0 += bd[oc]
					s1 += bd[oc+1]
					s2 += bd[oc+2]
					s3 += bd[oc+3]
				}
				od[outBase+(oc+0)*plane+ox] = s0
				od[outBase+(oc+1)*plane+ox] = s1
				od[outBase+(oc+2)*plane+ox] = s2
				od[outBase+(oc+3)*plane+ox] = s3
			}
			for ; oc < outC; oc++ {
				wrow := wd[oc*k : oc*k+k]
				wrow = wrow[:len(crow)]
				var s float32
				for p, cv := range crow {
					s += cv * wrow[p]
				}
				if bd != nil {
					s += bd[oc]
				}
				od[outBase+oc*plane+ox] = s
			}
		}
	}
}
