package nn

import (
	"fmt"
	"testing"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

// convForwardReference is the pre-engine forward pipeline — naive
// im2col, naive GEMM, explicit bias broadcast, and the rows→NCHW repack
// — retained so BenchmarkConvForward reports the production path's
// speedup against a fixed baseline.
func convForwardReference(x, w, bias *tensor.Tensor, outC, kh, kw, stride, pad int) *tensor.Tensor {
	n, h, wd := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutSize(h, kh, stride, pad)
	ow := tensor.ConvOutSize(wd, kw, stride, pad)
	cols := tensor.Im2ColNaive(x, kh, kw, stride, pad)
	rows := tensor.MatMulTBNaive(cols, w)
	rows.AddRowVector(bias)
	return tensor.RowsToNCHW(rows, n, outC, oh, ow)
}

// BenchmarkConvForward measures Conv2D.Forward at the geometries the
// split models run on CIFAR 32×32 with the default cut at L1:
// conv1 (3→16 at 32×32, the platform-side layer) and conv2 (16→32 at
// 16×16, the first server-side conv). The fused cases exercise the
// production layer (the channel-major engine, buffer reuse included);
// the reference cases pin the retained naive pipeline.
func BenchmarkConvForward(b *testing.B) {
	shapes := []struct {
		name                string
		n, inC, outC, h, w  int
		kh, kw, stride, pad int
	}{
		{"L1-conv1/8x3x32x32-to-16", 8, 3, 16, 32, 32, 3, 3, 1, 1},
		{"L2-conv2/8x16x16x16-to-32", 8, 16, 32, 16, 16, 3, 3, 1, 1},
	}
	for _, s := range shapes {
		r := rng.New(1)
		layer := NewConv2D("bench", s.inC, s.outC, s.kh, s.kw, s.stride, s.pad, r)
		x := tensor.New(s.n, s.inC, s.h, s.w)
		x.FillNormal(r, 0, 1)
		b.Run("fused/"+s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				layer.Forward(x, false)
			}
		})
		b.Run("reference/"+s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				convForwardReference(x, layer.w.W, layer.b.W, s.outC, s.kh, s.kw, s.stride, s.pad)
			}
		})
	}
}

// BenchmarkDenseTrainStep measures a forward+backward pair of the
// VGG-lite head dense layer (256→64), where the Acc gradient kernels
// remove the per-step temporaries.
func BenchmarkDenseTrainStep(b *testing.B) {
	for _, batch := range []int{32, 128} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			r := rng.New(1)
			layer := NewDense("bench", 256, 64, r)
			x := tensor.New(batch, 256)
			x.FillNormal(r, 0, 1)
			cot := tensor.New(batch, 64)
			cot.FillNormal(r, 0, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.Forward(x, true)
				layer.Backward(cot)
			}
		})
	}
}

// inputLayerBench builds the train_mlp_tcp platform's whole front — the
// 3072→64 dense input layer — with one input row driven through it, so
// the three benchmarks below time the passes a platform runs between
// the cut gradient's arrival and its next activations at the size the
// repository benchmark runs them.
func inputLayerBench() (layer *Dense, cot *tensor.Tensor) {
	r := rng.New(1)
	layer = NewDense("fc1", 3072, 64, r)
	x := tensor.New(1, 3072)
	x.FillNormal(r, 0, 1)
	layer.Forward(x, true)
	cot = tensor.New(1, 64)
	cot.FillNormal(r, 0, 1)
	return layer, cot
}

// BenchmarkInputLayerUpdate times the platform's whole per-round
// update of the input layer, clip 5 and plain SGD as train_mlp_tcp
// runs it: the gradient route (ZeroGrads, Backward, ClipGrads,
// SGD.Step, five passes over the 3072×64 matrix) against BackwardStep,
// which updates the weights in one pass and never touches G. Neither
// allocates.
func BenchmarkInputLayerUpdate(b *testing.B) {
	for _, fused := range []bool{false, true} {
		name := "unfused"
		if fused {
			name = "fused"
		}
		b.Run(name, func(b *testing.B) {
			layer, cot := inputLayerBench()
			layer.SkipInputGrad(true)
			front := NewSequential("front", layer)
			opt := &SGD{LR: 1e-4}
			step := func() {
				if fused {
					ZeroGrads(GradParams(front, opt))
					BackwardStep(front, cot, opt, 5)
					return
				}
				ZeroGrads(front.Params())
				front.Backward(cot)
				ClipGrads(front.Params(), 5)
				opt.Step(front.Params())
			}
			step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkDenseBackwardInputLayer compares the input layer's backward
// with the input gradient skipped (what models.Split arranges) and
// computed (the default every other layer keeps).
func BenchmarkDenseBackwardInputLayer(b *testing.B) {
	for _, skip := range []bool{true, false} {
		name := "dx-computed"
		if skip {
			name = "dx-skipped"
		}
		b.Run(name, func(b *testing.B) {
			layer, cot := inputLayerBench()
			layer.SkipInputGrad(skip)
			layer.Backward(cot) // sizes the dx scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.Backward(cot)
			}
		})
	}
}

func BenchmarkClipGrads(b *testing.B) {
	layer, cot := inputLayerBench()
	layer.Backward(cot)
	params := layer.Params()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClipGrads(params, 5)
	}
}

func BenchmarkSGDStep(b *testing.B) {
	for _, opt := range []*SGD{{LR: 1e-4}, {LR: 1e-4, WeightDecay: 1e-4}} {
		name := "plain"
		if opt.WeightDecay != 0 {
			name = "weight-decay"
		}
		b.Run(name, func(b *testing.B) {
			layer, cot := inputLayerBench()
			layer.Backward(cot)
			params := layer.Params()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.Step(params)
			}
		})
	}
}

// vggActShapes are the activation shapes train_vgg_int8 (VGG-lite
// width 8, 16 rows per platform) feeds its ReLU and 2×2 max-pool layers,
// one per conv stage.
var vggActShapes = []struct {
	name       string
	n, c, h, w int
}{
	{"stage1/16x8x32x32", 16, 8, 32, 32},
	{"stage2/16x16x16x16", 16, 16, 16, 16},
	{"stage3/16x32x8x8", 16, 32, 8, 8},
}

// serveActShapes are the activation shapes the serving tier's VGG-lite
// back half (width 8) feeds its conv-stage ReLU and max-pool layers at
// an 8-row batch.
var serveActShapes = []struct {
	name       string
	n, c, h, w int
}{
	{"stage2/8x16x16x16", 8, 16, 16, 16},
	{"stage3/8x32x8x8", 8, 32, 8, 8},
}

// benchActLayer times layer on a normal draw pushed through pre (nil
// for none): one train-mode forward + backward per op at each of the
// benchmark's activation shapes, and one eval forward per op, under
// eval/, at the serving shapes. The layer reuses its output and
// gradient scratch, so an op allocates nothing.
func benchActLayer(b *testing.B, pre func(*tensor.Tensor) *tensor.Tensor, layer func() Layer) {
	input := func(n, c, h, w int) *tensor.Tensor {
		x := tensor.New(n, c, h, w)
		x.FillNormal(rng.New(1), 0, 1)
		if pre != nil {
			x = pre(x)
		}
		return x
	}
	for _, s := range vggActShapes {
		b.Run(s.name, func(b *testing.B) {
			x := input(s.n, s.c, s.h, s.w)
			l := layer()
			g := tensor.New(l.Forward(x, true).Shape()...)
			g.FillNormal(rng.New(2), 0, 1)
			l.Backward(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Forward(x, true)
				l.Backward(g)
			}
		})
	}
	for _, s := range serveActShapes {
		b.Run("eval/"+s.name, func(b *testing.B) {
			x := input(s.n, s.c, s.h, s.w)
			l := layer()
			l.Forward(x, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Forward(x, false)
			}
		})
	}
}

// BenchmarkReLU times the activation in train and eval mode.
func BenchmarkReLU(b *testing.B) {
	benchActLayer(b, nil, func() Layer { return NewReLU("bench") })
}

// BenchmarkMaxPool2D times the 2×2 stride-2 pool in train and eval mode
// on post-ReLU input (half zeros, so ties are common).
func BenchmarkMaxPool2D(b *testing.B) {
	relu := func(x *tensor.Tensor) *tensor.Tensor { return NewReLU("relu").Forward(x, false) }
	benchActLayer(b, relu, func() Layer { return NewMaxPool2D("bench", 2, 2) })
}

// BenchmarkConvTrainStep times one train-mode forward + backward of each
// conv layer train_vgg_int8 runs (VGG-lite width 8, 16 rows per
// platform). conv1 is the platform's input layer, so, as models.Split
// arranges, its backward skips the input gradient. The layer reuses its
// column, output and gradient scratch, so a step allocates nothing.
func BenchmarkConvTrainStep(b *testing.B) {
	shapes := []struct {
		name               string
		n, inC, outC, h, w int
		skipDX             bool
	}{
		{"conv1/16x3x32x32/out8", 16, 3, 8, 32, 32, true},
		{"conv2/16x8x16x16/out16", 16, 8, 16, 16, 16, false},
		{"conv3/16x16x8x8/out32", 16, 16, 32, 8, 8, false},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			r := rng.New(1)
			layer := NewConv2D("bench", s.inC, s.outC, 3, 3, 1, 1, r)
			layer.SkipInputGrad(s.skipDX)
			x := tensor.New(s.n, s.inC, s.h, s.w)
			x.FillNormal(r, 0, 1)
			g := tensor.New(s.n, s.outC, s.h, s.w)
			g.FillNormal(r, 0, 1)
			layer.Forward(x, true)
			layer.Backward(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.Forward(x, true)
				layer.Backward(g)
			}
		})
	}
}
