package nn

import (
	"fmt"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b for x of shape
// [batch, in].
//
// The output and input-gradient tensors are layer-owned scratch reused
// across calls (same lifetime contract as Conv2D's scratch): a result
// is valid until the layer's next Forward/Backward, which every
// training and evaluation loop in this codebase satisfies — consumers
// read a layer's output before driving the next batch through it.
type Dense struct {
	name string
	w    *Param // [in, out]
	b    *Param // [out]

	x  *tensor.Tensor // cached input for Backward
	y  *tensor.Tensor // forward output scratch
	dx *tensor.Tensor // backward input-gradient scratch

	skipDX bool // Backward returns nil for dx (SkipInputGrad)

	// wf16 is a half-precision pack of W used by eval-mode Forward when
	// set (see EnableF16). It is a snapshot: training steps do not
	// refresh it, so it belongs only on frozen inference instances.
	wf16 *tensor.F16Matrix
}

var _ Layer = (*Dense)(nil)

// NewDense builds a fully connected layer with He initialization (the
// right default for the ReLU networks used throughout this repo).
func NewDense(name string, in, out int, r *rng.RNG) *Dense {
	w := tensor.New(in, out)
	w.HeInit(r, in)
	return &Dense{
		name: name,
		w:    NewParam(name+".w", w),
		b:    NewParam(name+".b", tensor.New(out)),
	}
}

// Name returns the layer name.
func (d *Dense) Name() string { return d.name }

// In returns the input width.
func (d *Dense) In() int { return d.w.W.Dim(0) }

// Out returns the output width.
func (d *Dense) Out() int { return d.w.W.Dim(1) }

// EnableF16 snapshots W into half-precision storage and switches
// eval-mode Forward onto the f16-weight GEMM: half the weight-memory
// traffic, f32 accumulation, output within one f16 rounding of the
// f32 path per weight read. Training forwards keep using the full f32
// weights and do NOT refresh the snapshot — call EnableF16 only on
// frozen inference instances (the serving tier re-packs after every
// checkpoint reload).
func (d *Dense) EnableF16() {
	d.wf16 = tensor.PackF16(d.w.W)
}

// Forward computes x·W + b.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("nn: %s: Dense input must be rank-2, got %v", d.name, x.Shape()))
	}
	if train {
		d.x = x
	}
	d.y = tensor.EnsureShape(d.y, x.Dim(0), d.w.W.Dim(1))
	if !train && d.wf16 != nil {
		tensor.MatMulF16Into(d.y, x, d.wf16)
	} else {
		tensor.MatMulInto(d.y, x, d.w.W)
	}
	d.y.AddRowVector(d.b.W)
	return d.y
}

// SkipInputGrad tells Backward whether to leave out the input gradient.
// A network's first layer sets it: dx there is the gradient with
// respect to the data, which training never reads, and for a wide input
// (3072 columns on the CIFAR-shaped MLP) it is most of the layer's
// backward. Parameter gradients are unaffected.
func (d *Dense) SkipInputGrad(skip bool) { d.skipDX = skip }

// Backward accumulates dW = xᵀ·dy and db = Σ rows(dy) and returns
// dx = dy·Wᵀ — or nil, with the product not computed, after
// SkipInputGrad(true). Both parameter gradients accumulate in place
// through the fused Acc kernels, so no temporary product tensors are
// allocated.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.x == nil {
		panic(fmt.Sprintf("nn: %s: Backward before train-mode Forward", d.name))
	}
	tensor.MatMulTAAcc(d.w.G, d.x, grad)
	tensor.SumRowsAcc(d.b.G, grad)
	if d.skipDX {
		return nil
	}
	d.dx = tensor.EnsureShape(d.dx, grad.Dim(0), d.w.W.Dim(0))
	return tensor.MatMulTBInto(d.dx, grad, d.w.W)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }
