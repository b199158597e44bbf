package nn

import (
	"fmt"
	"math"

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
// read a layer's output before driving the next batch through it. For
// Backward it caches its input, by reference.
type Dense struct {
	name string
	w    *Param // [in, out]
	b    *Param // [out]

	x  *tensor.Tensor // backward cache: the input; nil after an eval Forward
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
	d.x = nil
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
// allocated. BackwardStep under plain SGD steps the layer through
// sgdStep instead, which leaves G untouched up to fusedStepMaxRows rows.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.mustHaveInput()
	tensor.MatMulTAAcc(d.w.G, d.x, grad)
	tensor.SumRowsAcc(d.b.G, grad)
	return d.inputGrad(grad)
}

// fusedStepMaxRows is the largest batch sgdStep updates without the
// gradients. tensor.DenseSGDStep re-reads dy and a strided column of x
// for every weight row where the GEMM packs panels, so past it the
// gradient route wins. Measured on a 2-core Xeon at GOMAXPROCS=1, clip
// 5: a 512×128 layer at 8, 16 and 24 rows took 45, 77 and 74 µs fused
// against 66, 92 and 79 µs, level at 32 and 48 rows; a 3072×64 layer
// at 64 rows took 1.19 ms against 0.78 ms.
const fusedStepMaxRows = 32

// sgdStep is Backward, clamping into [-clip, clip] when clip > 0, and
// a plain-SGD step at rate lr, bit-identical to that sequence. Up to
// fusedStepMaxRows rows it is one pass that never touches G: dx from
// the old weights first, then w += (−lr)·clamp(xᵀ·dy) and
// b += (−lr)·clamp(Σ rows(dy)). A larger batch takes the sequence on
// the layer's own G, zeroed here.
func (d *Dense) sgdStep(grad *tensor.Tensor, lr, clip float32) *tensor.Tensor {
	d.mustHaveInput()
	if grad.Dim(0) > fusedStepMaxRows {
		d.w.G.Zero()
		d.b.G.Zero()
		dx := d.Backward(grad)
		for _, p := range [...]*Param{d.w, d.b} {
			if clip > 0 {
				p.G.ClipInPlace(clip)
			}
			p.W.AxpyInPlace(-lr, p.G)
		}
		return dx
	}
	dx := d.inputGrad(grad)
	limit := float32(math.Inf(1))
	if clip > 0 {
		limit = clip
	}
	tensor.DenseSGDStep(d.w.W, d.b.W, d.x, grad, -lr, limit)
	return dx
}

func (d *Dense) mustHaveInput() {
	if d.x == nil {
		panic(fmt.Sprintf("nn: %s: Backward before train-mode Forward", d.name))
	}
}

// inputGrad returns dx = dy·Wᵀ into layer scratch, or nil after
// SkipInputGrad(true).
func (d *Dense) inputGrad(grad *tensor.Tensor) *tensor.Tensor {
	if d.skipDX {
		return nil
	}
	d.dx = tensor.EnsureShape(d.dx, grad.Dim(0), d.w.W.Dim(0))
	return tensor.MatMulTBInto(d.dx, grad, d.w.W)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }
