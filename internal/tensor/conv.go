package tensor

import "fmt"

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

// Im2Col lowers a batched NCHW image tensor into the row-major column
// matrix used to express convolution as matrix multiplication. For x of
// shape [n, c, h, w] and a kh×kw kernel, the result has shape
// [n*oh*ow, c*kh*kw]: row (n, oy, ox) holds the receptive field of output
// pixel (oy, ox) of sample n, with zero padding outside the image.
//
// No training path uses this layout any more — nn.Conv2D lowers
// channel-major (ConvForwardInto) — but the repository benchmark's
// tensor.im2col_ms probe times Im2ColInto, so it keeps its contract.
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
// row-major im2col convolution) into an NCHW tensor [n, c, oh, ow]. It
// is the reference the channel-major engine's tests compare against.
func RowsToNCHW(rows *Tensor, n, c, oh, ow int) *Tensor {
	if len(rows.shape) != 2 || rows.shape[0] != n*oh*ow || rows.shape[1] != c {
		panic(fmt.Sprintf("tensor: RowsToNCHW shape %v does not match [%d,%d]", rows.shape, n*oh*ow, c))
	}
	out := New(n, c, oh, ow)
	p := oh * ow
	for r := 0; r < n*p; r++ {
		in, px := r/p, r%p
		for ch, v := range rows.data[r*c : (r+1)*c] {
			out.data[(in*c+ch)*p+px] = v
		}
	}
	return out
}
