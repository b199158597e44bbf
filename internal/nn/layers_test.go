package nn

import (
	"math"
	"runtime"
	"testing"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

func randInput(seed uint64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillNormal(rng.New(seed), 0, 1)
	return t
}

func mustGradCheck(t *testing.T, l Layer, x *tensor.Tensor) {
	t.Helper()
	if err := (GradCheck{}).Check(l, x); err != nil {
		t.Fatal(err)
	}
}

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense("fc", 2, 2, rng.New(1))
	// Overwrite weights with known values: W = [[1,2],[3,4]], b = [10, 20].
	copy(d.w.W.Data(), []float32{1, 2, 3, 4})
	copy(d.b.W.Data(), []float32{10, 20})
	x := tensor.FromSlice([]float32{1, 1, 2, 0}, 2, 2)
	y := d.Forward(x, false)
	want := []float32{14, 26, 12, 24}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("Forward = %v, want %v", y.Data(), want)
		}
	}
	if d.In() != 2 || d.Out() != 2 {
		t.Fatalf("In/Out = %d/%d", d.In(), d.Out())
	}
}

func TestDenseGradients(t *testing.T) {
	mustGradCheck(t, NewDense("fc", 5, 3, rng.New(2)), randInput(3, 4, 5))
}

func TestDenseBackwardAccumulates(t *testing.T) {
	d := NewDense("fc", 3, 2, rng.New(4))
	x := randInput(5, 2, 3)
	g := randInput(6, 2, 2)
	ZeroGrads(d.Params())
	d.Forward(x, true)
	d.Backward(g)
	first := d.w.G.Clone()
	d.Forward(x, true)
	d.Backward(g)
	doubled := tensor.Scaled(first, 2)
	if !tensor.AllClose(d.w.G, doubled, 1e-5) {
		t.Fatal("gradients must accumulate across Backward calls")
	}
}

// SkipInputGrad(true) must drop only dx: Backward returns nil and the
// parameter gradients match a twin layer's bit for bit; cleared again,
// the layer returns the twin's dx. The twin runs the default path the
// gradient checks above cover.
func TestSkipInputGrad(t *testing.T) {
	type skipper interface {
		Layer
		SkipInputGrad(bool)
	}
	for _, tc := range []struct {
		name  string
		build func() skipper
		x, g  *tensor.Tensor
	}{
		{"dense", func() skipper { return NewDense("fc", 7, 5, rng.New(21)) },
			randInput(22, 3, 7), randInput(23, 3, 5)},
		{"conv2d", func() skipper { return NewConv2D("conv", 3, 4, 3, 3, 1, 1, rng.New(24)) },
			randInput(25, 2, 3, 6, 6), randInput(26, 2, 4, 6, 6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, twin := tc.build(), tc.build()
			twin.Forward(tc.x, true)
			want := twin.Backward(tc.g)

			l.SkipInputGrad(true)
			l.Forward(tc.x, true)
			if dx := l.Backward(tc.g); dx != nil {
				t.Fatalf("Backward returned %v with the input gradient skipped, want nil", dx.Shape())
			}
			for i, p := range l.Params() {
				if !tensor.AllClose(p.G, twin.Params()[i].G, 0) {
					t.Fatalf("%s gradient differs with the input gradient skipped", p.Name)
				}
			}

			l.SkipInputGrad(false)
			l.Forward(tc.x, true)
			if dx := l.Backward(tc.g); dx == nil || !tensor.AllClose(dx, want, 0) {
				t.Fatal("Backward with the flag cleared does not return the default path's dx")
			}
		})
	}
}

func TestDensePanicsWithoutForward(t *testing.T) {
	d := NewDense("fc", 2, 2, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward before Forward should panic")
		}
	}()
	d.Backward(tensor.New(1, 2))
}

func TestConv2DKnownIdentityKernel(t *testing.T) {
	// 1x1 kernel with weight 1: convolution is the identity.
	c := NewConv2D("conv", 1, 1, 1, 1, 1, 0, rng.New(1))
	c.w.W.Data()[0] = 1
	c.b.W.Data()[0] = 0
	x := randInput(2, 1, 1, 4, 4)
	y := c.Forward(x, false)
	if !tensor.AllClose(x, y, 1e-6) {
		t.Fatal("1x1 identity kernel must reproduce input")
	}
}

func TestConv2DKnownSum(t *testing.T) {
	// 2x2 kernel of ones, stride 2: each output is the window sum.
	c := NewConv2D("conv", 1, 1, 2, 2, 2, 0, rng.New(1))
	for i := range c.w.W.Data() {
		c.w.W.Data()[i] = 1
	}
	c.b.W.Data()[0] = 0
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y := c.Forward(x, false)
	want := []float32{14, 22, 46, 54}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("conv sums = %v, want %v", y.Data(), want)
		}
	}
}

func TestConv2DGradients(t *testing.T) {
	mustGradCheck(t, NewConv2D("conv", 2, 3, 3, 3, 1, 1, rng.New(7)), randInput(8, 2, 2, 5, 5))
}

func TestConv2DStridedGradients(t *testing.T) {
	mustGradCheck(t, NewConv2D("conv", 1, 2, 3, 3, 2, 1, rng.New(9)), randInput(10, 1, 1, 7, 7))
}

// TestConv2DFanOutMatchesSerial runs train-mode Forward plus two
// accumulating Backward passes at the benchmark's conv2 shape, well
// above the tensor package's parallel threshold, once on one core and
// once on four. The per-sample fan-out writes layer-owned scratch from
// several goroutines (the race detector watches this), and the result
// must not change a bit.
func TestConv2DFanOutMatchesSerial(t *testing.T) {
	run := func(procs int) []*tensor.Tensor {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c := NewConv2D("conv", 8, 16, 3, 3, 1, 1, rng.New(11))
		x := randInput(12, 16, 8, 16, 16)
		g := randInput(13, 16, 16, 16, 16)
		ZeroGrads(c.Params())
		out := c.Forward(x, true).Clone()
		c.Backward(g)
		dx := c.Backward(g).Clone()
		return []*tensor.Tensor{out, dx, c.w.G, c.b.G}
	}
	serial, fanned := run(1), run(4)
	for i, want := range serial {
		for j, v := range want.Data() {
			if got := fanned[i].Data()[j]; math.Float32bits(got) != math.Float32bits(v) {
				t.Fatalf("result %d element %d: %v on four cores, %v on one", i, j, got, v)
			}
		}
	}
}

func TestConv2DShapePanic(t *testing.T) {
	c := NewConv2D("conv", 3, 4, 3, 3, 1, 1, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong channel count should panic")
		}
	}()
	c.Forward(tensor.New(1, 2, 5, 5), false)
}

func TestMaxPoolKnown(t *testing.T) {
	p := NewMaxPool2D("pool", 2, 2)
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 13, 11, 12,
		10, 14, 15, 16,
	}, 1, 1, 4, 4)
	y := p.Forward(x, false)
	want := []float32{4, 8, 14, 16}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("maxpool = %v, want %v", y.Data(), want)
		}
	}
}

func TestMaxPoolGradients(t *testing.T) {
	mustGradCheck(t, NewMaxPool2D("pool", 2, 2), randInput(11, 2, 3, 6, 6))
}

func TestMaxPoolBackwardRouting(t *testing.T) {
	p := NewMaxPool2D("pool", 2, 2)
	x := tensor.FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	p.Forward(x, true)
	g := tensor.FromSlice([]float32{10}, 1, 1, 1, 1)
	dx := p.Backward(g)
	want := []float32{0, 0, 0, 10}
	for i, v := range dx.Data() {
		if v != want[i] {
			t.Fatalf("routed grad = %v, want %v", dx.Data(), want)
		}
	}
}

func TestGlobalAvgPoolKnown(t *testing.T) {
	g := NewGlobalAvgPool("gap")
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := g.Forward(x, false)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 25 {
		t.Fatalf("gap = %v", y.Data())
	}
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	mustGradCheck(t, NewGlobalAvgPool("gap"), randInput(13, 2, 4, 3, 3))
}

func TestReLUKnownAndGradients(t *testing.T) {
	r := NewReLU("relu")
	x := tensor.FromSlice([]float32{-1, 0, 2}, 1, 3)
	y := r.Forward(x, false)
	if y.At(0, 0) != 0 || y.At(0, 1) != 0 || y.At(0, 2) != 2 {
		t.Fatalf("relu = %v", y.Data())
	}
	mustGradCheck(t, NewReLU("relu"), randInput(15, 4, 6))
}

func TestTanhGradients(t *testing.T) {
	mustGradCheck(t, NewTanh("tanh"), randInput(21, 3, 5))
}

func TestBatchNormTrainNormalizes(t *testing.T) {
	b := NewBatchNorm("bn", 3)
	x := randInput(23, 64, 3)
	y := b.Forward(x, true)
	// Per-feature mean ~0 and variance ~1 (gamma=1, beta=0 initially).
	for ch := 0; ch < 3; ch++ {
		var mean, varSum float64
		for i := 0; i < 64; i++ {
			mean += float64(y.At(i, ch))
		}
		mean /= 64
		for i := 0; i < 64; i++ {
			d := float64(y.At(i, ch)) - mean
			varSum += d * d
		}
		varSum /= 64
		if math.Abs(mean) > 1e-4 {
			t.Errorf("channel %d mean %v", ch, mean)
		}
		if math.Abs(varSum-1) > 1e-2 {
			t.Errorf("channel %d variance %v", ch, varSum)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	b := NewBatchNorm("bn", 2)
	// Train on many batches from a shifted distribution.
	for i := 0; i < 200; i++ {
		x := tensor.New(32, 2)
		x.FillNormal(rng.New(uint64(i)), 5, 2)
		b.Forward(x, true)
	}
	// Eval on data from the same distribution: output should be roughly
	// standardized.
	x := tensor.New(256, 2)
	x.FillNormal(rng.New(999), 5, 2)
	y := b.Forward(x, false)
	if m := y.Mean(); math.Abs(m) > 0.2 {
		t.Fatalf("eval mean %v, want ~0", m)
	}
}

func TestBatchNormGradients2D(t *testing.T) {
	mustGradCheck(t, NewBatchNorm("bn", 4), randInput(25, 8, 4))
}

func TestBatchNormGradients4D(t *testing.T) {
	mustGradCheck(t, NewBatchNorm("bn", 3), randInput(27, 4, 3, 3, 3))
}

func TestBatchNormRejectsWrongChannels(t *testing.T) {
	b := NewBatchNorm("bn", 4)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong channel count should panic")
		}
	}()
	b.Forward(tensor.New(2, 3), false)
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("flat")
	x := randInput(29, 2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	g := randInput(31, 2, 60)
	dx := f.Backward(g)
	if dx.Dim(1) != 3 || dx.Dim(3) != 5 {
		t.Fatalf("backward shape %v", dx.Shape())
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	d := NewDropout("drop", 0.5, rng.New(1))
	x := randInput(33, 4, 4)
	y := d.Forward(x, false)
	if !tensor.AllClose(x, y, 0) {
		t.Fatal("eval-mode dropout must be identity")
	}
}

func TestDropoutTrainStatistics(t *testing.T) {
	d := NewDropout("drop", 0.25, rng.New(2))
	x := tensor.Full(1, 100, 100)
	y := d.Forward(x, true)
	// Inverted dropout preserves the expectation.
	if m := y.Mean(); math.Abs(m-1) > 0.05 {
		t.Fatalf("dropout mean %v, want ~1", m)
	}
	// Survivors are scaled by 1/(1-rate).
	for _, v := range y.Data() {
		if v != 0 && math.Abs(float64(v)-4.0/3.0) > 1e-5 {
			t.Fatalf("survivor value %v, want 4/3", v)
		}
	}
}

func TestDropoutBackwardUsesSameMask(t *testing.T) {
	d := NewDropout("drop", 0.5, rng.New(3))
	x := tensor.Full(1, 10, 10)
	y := d.Forward(x, true)
	g := tensor.Full(1, 10, 10)
	dx := d.Backward(g)
	for i := range y.Data() {
		if (y.Data()[i] == 0) != (dx.Data()[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestDropoutRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rate 1 should panic")
		}
	}()
	NewDropout("drop", 1, rng.New(1))
}

func TestResidualIdentityGradients(t *testing.T) {
	r := rng.New(35)
	body := NewSequential("body",
		NewDense("fc1", 6, 6, r),
		NewReLU("relu"),
		NewDense("fc2", 6, 6, r),
	)
	mustGradCheck(t, NewResidual("res", body, nil), randInput(37, 3, 6))
}

func TestResidualProjectionGradients(t *testing.T) {
	r := rng.New(39)
	body := NewSequential("body", NewDense("fc", 4, 8, r))
	skip := NewSequential("skip", NewDense("proj", 4, 8, r))
	mustGradCheck(t, NewResidual("res", body, skip), randInput(41, 3, 4))
}

func TestResidualShapeMismatchPanics(t *testing.T) {
	r := rng.New(43)
	body := NewSequential("body", NewDense("fc", 4, 8, r))
	res := NewResidual("res", body, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch should panic")
		}
	}()
	res.Forward(tensor.New(2, 4), false)
}

func TestSequentialChainsAndCollectsParams(t *testing.T) {
	r := rng.New(45)
	// Tanh rather than ReLU: the finite-difference check needs a smooth
	// network (ReLU kinks under ±eps weight perturbations break it).
	seq := NewSequential("mlp",
		NewDense("fc1", 4, 8, r),
		NewTanh("tanh"),
		NewDense("fc2", 8, 2, r),
	)
	if len(seq.Params()) != 4 {
		t.Fatalf("params = %d, want 4 (2 dense layers × w,b)", len(seq.Params()))
	}
	if len(seq.Layers()) != 3 {
		t.Fatalf("layers = %d", len(seq.Layers()))
	}
	y := seq.Forward(randInput(47, 5, 4), false)
	if y.Dim(0) != 5 || y.Dim(1) != 2 {
		t.Fatalf("output shape %v", y.Shape())
	}
	mustGradCheck(t, seq, randInput(49, 3, 4))
}
