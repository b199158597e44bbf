package tensor

import (
	"fmt"
	"math"
	"testing"

	"medsplit/internal/rng"
	"medsplit/internal/tensor/kernels"
)

// convGeometries hits stride > 1, pad > 0, non-square images, prime
// dimensions, 1×1 kernels, and kernels larger than the padded remainder.
// Stride-1 3-wide windows take the fused im2col/col2im paths; every
// other row takes the general loops.
var convGeometries = []struct {
	n, c, h, w, kh, kw, stride, pad int
}{
	{1, 1, 5, 5, 3, 3, 1, 1},
	{2, 3, 7, 11, 3, 3, 1, 1},
	{3, 2, 13, 13, 5, 5, 2, 2},
	{2, 4, 8, 8, 2, 2, 2, 0},
	{1, 3, 17, 9, 3, 5, 2, 1},
	{5, 1, 6, 6, 1, 1, 1, 0},
	{2, 2, 9, 9, 4, 4, 3, 2},
	{4, 3, 32, 32, 3, 3, 1, 1}, // CIFAR L1 geometry
	{1, 2, 2, 2, 3, 3, 1, 1},   // no whole window: every column overhangs
	{1, 2, 4, 7, 3, 3, 2, 0},   // stride 2 without padding
	{2, 3, 9, 9, 3, 3, 2, 1},   // ResNet-lite's downsampling 3×3
	{3, 4, 8, 8, 1, 1, 2, 0},   // ResNet-lite's 1×1 stride-2 projection
	{2, 2, 6, 7, 3, 3, 1, 0},   // fused path without padding
	{1, 2, 5, 6, 3, 3, 1, 2},   // fused path with a pad wider than the overlap
	{2, 3, 13, 13, 3, 3, 1, 1}, // ow = 13, not a multiple of the vector width
	{2, 16, 6, 6, 3, 3, 1, 1},  // K = 144: two KC panels
	// The three convs of the repository benchmark's VGG-lite (width 8,
	// 16 rows): each is above parallelThreshold, so the workers=4 runs
	// take the real fan-out.
	{16, 3, 32, 32, 3, 3, 1, 1},
	{16, 8, 16, 16, 3, 3, 1, 1},
	{16, 16, 8, 8, 3, 3, 1, 1},
	// Three samples above parallelThreshold: the per-sample fan-out
	// splits unevenly.
	{3, 8, 16, 16, 3, 3, 1, 1},
}

// assertBitEqual fails unless got and want hold the same float bits:
// the lowering kernels only move values (col2im adds them in the
// reference's order), so they owe the naive references every bit.
func assertBitEqual(t *testing.T, tag string, got, want *Tensor) {
	t.Helper()
	if !SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", tag, got.Shape(), want.Shape())
	}
	for i, w := range want.data {
		if math.Float32bits(got.data[i]) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %v, want %v", tag, i, got.data[i], w)
		}
	}
}

// NCHWToRows flattens an NCHW tensor [n, c, oh, ow] into the rows
// layout [n·oh·ow, c] the row-major reference pipelines work in; it is
// RowsToNCHW's inverse.
func NCHWToRows(x *Tensor) *Tensor {
	n, c, p := x.shape[0], x.shape[1], x.shape[2]*x.shape[3]
	rows := New(n*p, c)
	for r := 0; r < n*p; r++ {
		for ch := 0; ch < c; ch++ {
			rows.data[r*c+ch] = x.data[(r/p*c+ch)*p+r%p]
		}
	}
	return rows
}

// im2colCM lowers every sample of x channel-major, [n, c·kh·kw, oh·ow].
func im2colCM(x *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, w, _, _ := convGeom("im2colCM", x, kh, kw, stride, pad)
	g := newLowering(c, h, w, kh, kw, stride, pad)
	k, p, in := g.taps(), g.pixels(), c*h*w
	cols := Full(999, n, k, p)
	for s := 0; s < n; s++ {
		g.im2col(cols.data[s*k*p:(s+1)*k*p], x.data[s*in:(s+1)*in])
	}
	return cols
}

// col2imCM is im2colCM's adjoint: it adds channel-major column
// gradients into a fresh [n, c, h, w] image.
func col2imCM(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	g := newLowering(c, h, w, kh, kw, stride, pad)
	k, p, in := g.taps(), g.pixels(), c*h*w
	img := Full(999, n, c, h, w)
	for s := 0; s < n; s++ {
		g.col2im(img.data[s*in:(s+1)*in], cols.data[s*k*p:(s+1)*k*p])
	}
	return img
}

// rowsToCM reorders a row-major column matrix [n·P, K] (Im2ColNaive's
// layout) into the channel-major [n, K, P].
func rowsToCM(rows *Tensor, n int) *Tensor {
	k, p := rows.shape[1], rows.shape[0]/n
	cm := New(n, k, p)
	for s := 0; s < n; s++ {
		for px := 0; px < p; px++ {
			for kk := 0; kk < k; kk++ {
				cm.data[(s*k+kk)*p+px] = rows.data[(s*p+px)*k+kk]
			}
		}
	}
	return cm
}

func TestIm2ColMatchesNaive(t *testing.T) {
	runWorkerModes(t, func(t *testing.T) {
		r := rng.New(21)
		for _, g := range convGeometries {
			x := randTensor(r, g.n, g.c, g.h, g.w)
			got := Im2Col(x, g.kh, g.kw, g.stride, g.pad)
			want := Im2ColNaive(x, g.kh, g.kw, g.stride, g.pad)
			assertBitEqual(t, "Im2Col", got, want)

			dirty := Full(999, want.Dim(0), want.Dim(1))
			assertBitEqual(t, "Im2ColInto", Im2ColInto(dirty, x, g.kh, g.kw, g.stride, g.pad), want)

			assertBitEqual(t, "channel-major im2col", im2colCM(x, g.kh, g.kw, g.stride, g.pad), rowsToCM(want, g.n))
		}
	})
}

func TestCol2ImMatchesNaive(t *testing.T) {
	runWorkerModes(t, func(t *testing.T) {
		r := rng.New(22)
		for _, g := range convGeometries {
			oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
			ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
			cols := randTensor(r, g.n*oh*ow, g.c*g.kh*g.kw)
			want := Col2ImNaive(cols, g.n, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
			got := col2imCM(rowsToCM(cols, g.n), g.n, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
			assertBitEqual(t, "channel-major col2im", got, want)
		}
	})
}

// col2imColumnMajor is Col2ImNaive with the output-position loops
// swapped, (ox, oy) instead of (oy, ox): every pixel receives the same
// terms in a different order. It exists only to prove that
// TestCol2ImKeepsSumOrder's data can tell the two orders apart.
func col2imColumnMajor(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	rowLen := c * kh * kw
	img := New(n, c, h, w)
	for in := 0; in < n; in++ {
		for ox := 0; ox < ow; ox++ {
			for oy := 0; oy < oh; oy++ {
				row := cols.data[((in*oh+oy)*ow+ox)*rowLen:][:rowLen]
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								img.data[((in*c+ch)*h+iy)*w+ix] += row[(ch*kh+ky)*kw+kx]
							}
						}
					}
				}
			}
		}
	}
	return img
}

// TestCol2ImKeepsSumOrder feeds col2im terms of wildly different
// magnitude (±1e8 beside 1), where float addition is far from
// associative: (1e8 + 1) - 1e8 is 0 but (1e8 - 1e8) + 1 is 1. A kernel
// that regrouped or reordered any pixel's sum would miss the naive
// reference by whole units, not ulps. The geometries cover both the
// fused 3-wide path and the general loop, and ConvInputGradInto (an
// identity kernel matrix, so the column gradient is the gradient
// itself) is held to the same order.
func TestCol2ImKeepsSumOrder(t *testing.T) {
	runWorkerModes(t, func(t *testing.T) {
		r := rng.New(27)
		terms := []float32{1e8, 1, -1e8, 3, -1e8, 1e8, -1}
		fused, general := 0, 0
		for _, g := range convGeometries {
			if newLowering(g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad).fused3() {
				fused++
			} else {
				general++
			}
			oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
			ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
			k := g.c * g.kh * g.kw
			cols := New(g.n*oh*ow, k)
			for i := range cols.data {
				cols.data[i] = terms[r.Intn(len(terms))]
			}
			want := Col2ImNaive(cols, g.n, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
			cm := rowsToCM(cols, g.n)
			assertBitEqual(t, "channel-major col2im", col2imCM(cm, g.n, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad), want)

			eye := New(k, k)
			for i := 0; i < k; i++ {
				eye.data[i*k+i] = 1
			}
			dx := Full(999, g.n, g.c, g.h, g.w)
			grad := cm.Reshape(g.n, k, oh, ow)
			ConvInputGradInto(dx, Full(999, g.n, k, oh*ow), grad, eye, g.kh, g.kw, g.stride, g.pad)
			assertBitEqual(t, "ConvInputGradInto", dx, want)
		}
		if fused == 0 || general == 0 {
			t.Fatalf("geometries reach the fused path %d times and the general loop %d times", fused, general)
		}
		// The data must be able to catch a reorder: swapping the
		// output-position loops changes some pixel at the CIFAR L1
		// geometry.
		g := convGeometries[7]
		oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
		ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
		cols := New(g.n*oh*ow, g.c*g.kh*g.kw)
		for i := range cols.data {
			cols.data[i] = terms[r.Intn(len(terms))]
		}
		want := Col2ImNaive(cols, g.n, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		swapped := col2imColumnMajor(cols, g.n, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		differs := false
		for i := range want.data {
			differs = differs || want.data[i] != swapped.data[i]
		}
		if !differs {
			t.Fatal("order-sensitive terms produced the same sums in both orders")
		}
	})
}

func TestRepackIntoMatchesNaive(t *testing.T) {
	runWorkerModes(t, func(t *testing.T) {
		r := rng.New(23)
		for _, g := range convGeometries {
			oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
			ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
			img := randTensor(r, g.n, g.c, oh, ow)
			back := RowsToNCHW(NCHWToRows(img), g.n, g.c, oh, ow)
			assertUlpEqual(t, "rows round-trip", back, img)
		}
	})
}

// convForwardReference is the row-major pipeline the channel-major
// forward replaces: naive im2col, the naive cols·wᵀ GEMM, the bias
// broadcast and the rows→NCHW repack.
func convForwardReference(x, w, bias *Tensor, kh, kw, stride, pad int) *Tensor {
	n, _, _, _, oh, ow := convGeom("convForwardReference", x, kh, kw, stride, pad)
	rows := MatMulTBNaive(Im2ColNaive(x, kh, kw, stride, pad), w)
	if bias != nil {
		rows.AddRowVector(bias)
	}
	return RowsToNCHW(rows, n, w.Dim(0), oh, ow)
}

// TestConvForwardMatchesReference holds ConvForwardInto to the
// row-major reference bit for bit, and its column scratch to the
// channel-major im2col.
func TestConvForwardMatchesReference(t *testing.T) {
	runWorkerModes(t, func(t *testing.T) {
		r := rng.New(24)
		for _, g := range convGeometries {
			// Counts below 4 leave the 4-row tile unused, and 7 and 9
			// split into a tile plus single rows.
			for _, outC := range []int{1, 3, 4, 7, 8, 9, 16} {
				oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
				ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
				k := g.c * g.kh * g.kw
				x := randTensor(r, g.n, g.c, g.h, g.w)
				w := randTensor(r, outC, k)
				bias := randTensor(r, outC)

				cols := Full(999, g.n, k, oh*ow)
				got := ConvForwardInto(Full(999, g.n, outC, oh, ow), cols, x, w, bias, g.kh, g.kw, g.stride, g.pad)
				assertBitEqual(t, "ConvForwardInto", got, convForwardReference(x, w, bias, g.kh, g.kw, g.stride, g.pad))
				assertBitEqual(t, "ConvForwardInto cols", cols, im2colCM(x, g.kh, g.kw, g.stride, g.pad))
			}
		}
	})
}

// TestConvForwardWorkerBlocks holds the eval layout, fewer column
// matrices than samples, to the per-sample layout bit for bit: at every
// block count from one to n, ConvColBlocks's among them, including
// sample counts the blocks do not divide. The last two geometries are
// above parallelThreshold, so the workers=4 runs fan 7 and 9 samples
// out over 4 blocks.
func TestConvForwardWorkerBlocks(t *testing.T) {
	geoms := append(convGeometries[:len(convGeometries):len(convGeometries)],
		convGeometries[len(convGeometries)-1])
	geoms[len(geoms)-2].n, geoms[len(geoms)-1].n = 7, 9
	runWorkerModes(t, func(t *testing.T) {
		r := rng.New(29)
		for _, g := range geoms {
			const outC = 9
			oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
			ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
			k := g.c * g.kh * g.kw
			x := randTensor(r, g.n, g.c, g.h, g.w)
			w := randTensor(r, outC, k)
			bias := randTensor(r, outC)
			want := ConvForwardInto(New(g.n, outC, oh, ow), New(g.n, k, oh*ow), x, w, bias, g.kh, g.kw, g.stride, g.pad)
			if b := ConvColBlocks(g.n); b != min(g.n, maxWorkers()) {
				t.Fatalf("ConvColBlocks(%d) = %d at %d workers", g.n, b, maxWorkers())
			}
			for b := 1; b <= g.n; b++ {
				got := ConvForwardInto(Full(999, g.n, outC, oh, ow), Full(999, b, k, oh*ow), x, w, bias, g.kh, g.kw, g.stride, g.pad)
				assertBitEqual(t, fmt.Sprintf("n=%d blocks=%d", g.n, b), got, want)
			}
		}
	})
}

// TestConvBackwardMatchesReference holds the two backward products to
// the row-major reference bit for bit: the weight gradient to
// NCHWToRows → naive aᵀ·b accumulation, over two backward calls that
// accumulate into the same gradient, and the input gradient to
// NCHWToRows → naive GEMM → Col2ImNaive.
func TestConvBackwardMatchesReference(t *testing.T) {
	runWorkerModes(t, func(t *testing.T) {
		r := rng.New(28)
		for _, g := range convGeometries {
			// 3 runs the generic kernel, 8 the vector kernel alone,
			// 9 the vector kernel with its scalar column tail.
			for _, outC := range []int{3, 8, 9} {
				oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
				ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
				k := g.c * g.kh * g.kw
				x := randTensor(r, g.n, g.c, g.h, g.w)
				w := randTensor(r, outC, k)
				cols := New(g.n, k, oh*ow)
				ConvForwardInto(New(g.n, outC, oh, ow), cols, x, w, nil, g.kh, g.kw, g.stride, g.pad)
				rowCols := Im2ColNaive(x, g.kh, g.kw, g.stride, g.pad)

				gw, want := New(outC, k), New(outC, k)
				for step := 0; step < 2; step++ {
					grad := randTensor(r, g.n, outC, oh, ow)
					gRows := NCHWToRows(grad)
					ConvWeightGradAcc(gw, cols, grad)
					matMulTAAccNaive(want, gRows, rowCols)
					assertBitEqual(t, "ConvWeightGradAcc", gw, want)

					dx := ConvInputGradInto(Full(999, g.n, g.c, g.h, g.w), Full(999, g.n, k, oh*ow), grad, w, g.kh, g.kw, g.stride, g.pad)
					wantDX := Col2ImNaive(MatMulNaive(gRows, w), g.n, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
					assertBitEqual(t, "ConvInputGradInto", dx, wantDX)
				}
			}
		}
	})
}

// TestConvDispatchBitIdentical pins the conv engine on every vector
// arm the host has to the same engine on the generic kernels, forward
// and both backward products: per output element all of them run one
// sequential accumulation chain, so switching dispatch may not change
// a single bit. outC 16, 24, 32 and 40 put the weight gradient
// (n = outC) on one or two strips of the AVX-512 arm's 8×16 tile, with
// and without an AVX2 remainder.
func TestConvDispatchBitIdentical(t *testing.T) {
	t.Logf("arms: %v", kernels.Arms())
	defer kernels.UseArm("")
	r := rng.New(26)
	for _, g := range convGeometries {
		for _, outC := range []int{8, 9, 16, 24, 32, 40} {
			oh := ConvOutSize(g.h, g.kh, g.stride, g.pad)
			ow := ConvOutSize(g.w, g.kw, g.stride, g.pad)
			k := g.c * g.kh * g.kw
			x := randTensor(r, g.n, g.c, g.h, g.w)
			w := randTensor(r, outC, k)
			bias := randTensor(r, outC)
			grad := randTensor(r, g.n, outC, oh, ow)
			run := func() (out, gw, dx *Tensor) {
				cols := New(g.n, k, oh*ow)
				out = ConvForwardInto(New(g.n, outC, oh, ow), cols, x, w, bias, g.kh, g.kw, g.stride, g.pad)
				gw = ConvWeightGradAcc(New(outC, k), cols, grad)
				dx = ConvInputGradInto(New(g.n, g.c, g.h, g.w), New(g.n, k, oh*ow), grad, w, g.kh, g.kw, g.stride, g.pad)
				return out, gw, dx
			}
			kernels.UseArm("generic")
			wantOut, wantGW, wantDX := run()
			for _, arm := range kernels.Arms() {
				kernels.UseArm(arm)
				out, gw, dx := run()
				assertBitEqual(t, "forward ["+arm+"]", out, wantOut)
				assertBitEqual(t, "weight gradient ["+arm+"]", gw, wantGW)
				assertBitEqual(t, "input gradient ["+arm+"]", dx, wantDX)
			}
		}
	}
}

// TestConvBiasGradMatchesSumRows pins ConvBiasGradAcc to the rows-layout
// bias gradient it replaced, SumRowsAcc over NCHWToRows, bit for bit.
// outC 8, 16 and 32 run whole four-channel groups; 9 adds a lone
// channel.
func TestConvBiasGradMatchesSumRows(t *testing.T) {
	r := rng.New(27)
	for _, outC := range []int{8, 9, 16, 32} {
		grad := randTensor(r, 3, outC, 5, 7)
		start := randTensor(r, outC)
		want := SumRowsAcc(start.Clone(), NCHWToRows(grad))
		got := ConvBiasGradAcc(start.Clone(), grad)
		assertBitEqual(t, "ConvBiasGradAcc", got, want)
	}
}

// TestConvForwardNilBias pins the bias-less path.
func TestConvForwardNilBias(t *testing.T) {
	r := rng.New(25)
	x := randTensor(r, 2, 3, 8, 8)
	w := randTensor(r, 5, 27)
	got := ConvForwardInto(New(2, 5, 8, 8), New(2, 27, 64), x, w, nil, 3, 3, 1, 1)
	assertBitEqual(t, "ConvForwardInto nil bias", got, convForwardReference(x, w, nil, 3, 3, 1, 1))
}
