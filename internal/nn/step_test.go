package nn

import (
	"fmt"
	"math"
	"testing"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/tensor/kernels"
)

// specialValues are the entries whose bits an update has to carry
// through exactly: signed zeros, NaN, the infinities, subnormals of both
// signs and a value whose products overflow.
var specialValues = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.NaN()),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(1), math.Float32frombits(0x80000005),
	3e38,
}

// unfusedStep is the sequence BackwardStep stands in for.
func unfusedStep(net *Sequential, grad *tensor.Tensor, opt Optimizer, clip float32) *tensor.Tensor {
	ZeroGrads(net.Params())
	dx := net.Backward(grad)
	if clip > 0 {
		ClipGrads(net.Params(), clip)
	}
	opt.Step(net.Params())
	return dx
}

// fusedStep is how the training loops call BackwardStep.
func fusedStep(net *Sequential, grad *tensor.Tensor, opt Optimizer, clip float32) *tensor.Tensor {
	ZeroGrads(GradParams(net, opt))
	return BackwardStep(net, grad, opt, clip)
}

// firstBitDiff returns the first index where a and b differ in bits
// (lengths included), or -1.
func firstBitDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// stepTwins drives the same two steps through BackwardStep on net and
// through the unfused sequence on its twin, and fails on the first
// weight or input-gradient bit that differs. Every gradient starts out
// dirty, so a parameter GradParams leaves out shows up in the weights.
func stepTwins(t *testing.T, net, twin *Sequential, x, grad *tensor.Tensor, opt, twinOpt Optimizer, clip float32) {
	t.Helper()
	for _, n := range []*Sequential{net, twin} {
		for _, p := range n.Params() {
			for i := range p.G.Data() {
				p.G.Data()[i] = 0.25
			}
		}
	}
	for step := 0; step < 2; step++ {
		dx := fusedStep(net, grad, opt, clip)
		_ = net.Forward(x, true)
		twinDX := unfusedStep(twin, grad, twinOpt, clip)
		_ = twin.Forward(x, true)
		if (dx == nil) != (twinDX == nil) {
			t.Fatalf("step %d: dx nil=%t, unfused nil=%t", step, dx == nil, twinDX == nil)
		}
		if dx != nil {
			if i := firstBitDiff(dx.Data(), twinDX.Data()); i >= 0 {
				t.Fatalf("step %d: dx[%d] = %#08x, unfused %#08x", step, i,
					math.Float32bits(dx.Data()[i]), math.Float32bits(twinDX.Data()[i]))
			}
		}
		ps, tps := net.Params(), twin.Params()
		for k := range ps {
			if i := firstBitDiff(ps[k].W.Data(), tps[k].W.Data()); i >= 0 {
				t.Fatalf("step %d: %s[%d] = %#08x, unfused %#08x", step, ps[k].Name, i,
					math.Float32bits(ps[k].W.Data()[i]), math.Float32bits(tps[k].W.Data()[i]))
			}
		}
	}
}

// TestBackwardStepMatchesUnfused holds BackwardStep on a dense layer
// under plain SGD bit for bit to ZeroGrads, Backward, ClipGrads and
// SGD.Step on an identical copy, dx included, on every kernel arm. The
// batches cross the GEMM's KC panel (129), the widths leave vector
// tails (10, 70), the clip limits range from off to binding almost
// everywhere, and the inputs and weights carry signed zeros, NaN,
// infinities and subnormals. The output gradient is finite: a
// non-finite gradient meeting a zero input is where the generic GEMM's
// zero skip and the assembly already part ways.
func TestBackwardStepMatchesUnfused(t *testing.T) {
	defer kernels.UseArm("")
	const in = 37
	for _, arm := range kernels.Arms() {
		for _, batch := range []int{1, 3, 16, 129} {
			for _, width := range []int{10, 64, 70} {
				for _, clip := range []float32{0, 5, 1e-3} {
					for _, skip := range []bool{false, true} {
						name := fmt.Sprintf("%s/batch%d/width%d/clip%g/skip=%t", arm, batch, width, clip, skip)
						t.Run(name, func(t *testing.T) {
							kernels.UseArm(arm)
							defer kernels.UseArm("")
							build := func() *Sequential {
								d := NewDense("fc", in, width, rng.New(7))
								d.SkipInputGrad(skip)
								w, b := d.w.W.Data(), d.b.W.Data()
								for k, v := range specialValues {
									w[(k*17+2)%len(w)] = v
									b[(k*3+1)%len(b)] = v
								}
								return NewSequential("net", d)
							}
							r := rng.New(uint64(batch*1000 + width))
							x := tensor.New(batch, in)
							x.FillNormal(r, 0, 3)
							for k, v := range specialValues {
								x.Data()[(k*41+3)%x.Size()] = v
							}
							grad := tensor.New(batch, width)
							grad.FillNormal(r, 0, 2)
							for k, v := range specialValues[:2] {
								grad.Data()[(k*13+1)%grad.Size()] = v
								grad.Data()[(k*29+5)%grad.Size()] = specialValues[5+k]
							}
							net, twin := build(), build()
							net.Forward(x, true)
							twin.Forward(x, true)
							stepTwins(t, net, twin, x, grad, &SGD{LR: 0.05}, &SGD{LR: 0.05}, clip)
						})
					}
				}
			}
		}
	}
}

// TestBackwardStepMixedLayers runs BackwardStep over a network where
// dense layers sit among layers with their own parameters (a conv, a
// BatchNorm, a residual block wrapping a dense layer) under every
// optimizer, and holds it to the unfused sequence bit for bit.
func TestBackwardStepMixedLayers(t *testing.T) {
	defer kernels.UseArm("")
	build := func() *Sequential {
		r := rng.New(11)
		return NewSequential("mixed",
			NewConv2D("conv", 3, 4, 3, 3, 1, 1, r),
			NewBatchNorm("bn", 4),
			NewReLU("relu"),
			NewFlatten("flat"),
			NewDense("fc1", 4*6*6, 10, r),
			NewTanh("tanh"),
			NewResidual("res", NewSequential("body", NewDense("fc2", 10, 10, r), NewTanh("tanh2")), nil),
			NewDense("head", 10, 3, r),
		)
	}
	opts := []struct {
		name string
		clip float32
		mk   func() Optimizer
	}{
		{"sgd", 0.05, func() Optimizer { return &SGD{LR: 0.05} }},
		{"sgd/clip-off", 0, func() Optimizer { return &SGD{LR: 0.2} }},
		{"sgd-decay", 0.05, func() Optimizer { return &SGD{LR: 0.05, WeightDecay: 1e-3} }},
		{"momentum", 0.05, func() Optimizer { return &Momentum{LR: 0.05, Mu: 0.9} }},
		{"adam", 0.05, func() Optimizer { return &Adam{LR: 0.01} }},
	}
	for _, arm := range kernels.Arms() {
		for _, o := range opts {
			t.Run(arm+"/"+o.name, func(t *testing.T) {
				kernels.UseArm(arm)
				defer kernels.UseArm("")
				r := rng.New(12)
				x := tensor.New(2, 3, 6, 6)
				x.FillNormal(r, 0, 1)
				grad := tensor.New(2, 3)
				grad.FillNormal(r, 0, 1)
				net, twin := build(), build()
				net.Forward(x, true)
				twin.Forward(x, true)
				stepTwins(t, net, twin, x, grad, o.mk(), o.mk(), o.clip)
			})
		}
	}
}
