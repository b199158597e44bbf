package nn

import (
	"fmt"
	"testing"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

// convForwardReference is the pre-engine forward pipeline — naive
// im2col, naive GEMM, explicit bias broadcast, and the rows→NCHW repack
// — retained so BenchmarkConvForward reports the fused path's speedup
// against a fixed baseline.
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
// production layer (buffer reuse included); the reference cases pin the
// retained naive pipeline.
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
