package nn

import (
	"fmt"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW input, lowered channel-major
// (see tensor.ConvForwardInto): each sample's column matrix is
// [inC*kh*kw, oh*ow], so the forward and both backward GEMMs read and
// write NCHW blocks in place. Weights are stored as [outC, inC*kh*kw].
//
// The layer owns persistent scratch (the column matrices and the
// backward gradient matrices) that is reused across calls instead of
// allocated per call. The scratch is shared between train and eval
// forwards, so Backward must run before the next Forward of any kind —
// the invariant every training loop in this codebase already satisfies
// (forward → backward → step, with evaluation only between rounds).
type Conv2D struct {
	name        string
	inC, outC   int
	kh, kw      int
	stride, pad int
	w           *Param // [outC, inC*kh*kw]
	b           *Param // [outC]

	cols        *tensor.Tensor // persistent column scratch [n, inC*kh*kw, oh*ow], valid after any Forward
	gRows       *tensor.Tensor // backward scratch: grad in rows layout
	dCols       *tensor.Tensor // backward scratch: column gradients, shaped like cols
	out         *tensor.Tensor // forward output scratch (same lifetime contract)
	dx          *tensor.Tensor // backward input-gradient scratch
	n, inH, inW int
	outH, outW  int

	skipDX bool // Backward returns nil for dx (SkipInputGrad)
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D builds a conv layer with He initialization. A 3×3 stride-1
// pad-1 configuration preserves spatial size ("same" convolution).
func NewConv2D(name string, inC, outC, kh, kw, stride, pad int, r *rng.RNG) *Conv2D {
	fanIn := inC * kh * kw
	w := tensor.New(outC, fanIn)
	w.HeInit(r, fanIn)
	return &Conv2D{
		name: name, inC: inC, outC: outC,
		kh: kh, kw: kw, stride: stride, pad: pad,
		w: NewParam(name+".w", w),
		b: NewParam(name+".b", tensor.New(outC)),
	}
}

// Name returns the layer name.
func (c *Conv2D) Name() string { return c.name }

// Forward computes the convolution of x [n, inC, h, w]: the column
// matrices go into reusable scratch and one GEMM per sample writes the
// NCHW output (bias included) directly.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.inC {
		panic(fmt.Sprintf("nn: %s: Conv2D input %v, want [n,%d,h,w]", c.name, x.Shape(), c.inC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutSize(h, c.kh, c.stride, c.pad)
	ow := tensor.ConvOutSize(w, c.kw, c.stride, c.pad)
	c.cols = tensor.EnsureShape(c.cols, n, c.inC*c.kh*c.kw, oh*ow)
	c.out = tensor.EnsureShape(c.out, n, c.outC, oh, ow)
	out := tensor.ConvForwardInto(c.out, c.cols, x, c.w.W, c.b.W, c.kh, c.kw, c.stride, c.pad)
	if train {
		c.n, c.inH, c.inW = n, h, w
		c.outH, c.outW = oh, ow
	} else {
		// Eval overwrites the shared cols scratch; invalidate the
		// backward cache so a Backward after an interleaved eval
		// Forward panics instead of mixing stale geometry with the
		// eval batch's columns.
		c.n = 0
	}
	return out
}

// SkipInputGrad tells Backward whether to leave out the input gradient
// (see Dense.SkipInputGrad): for a network's first layer that drops the
// column-gradient GEMM and the col2im scatter.
func (c *Conv2D) SkipInputGrad(skip bool) { c.skipDX = skip }

// Backward consumes grad [n, outC, oh, ow] and returns the input
// gradient [n, inC, h, w] — or nil, not computed, after
// SkipInputGrad(true). Weight and bias gradients accumulate in place
// (no temporary product tensors) and the two large intermediates reuse
// layer-owned scratch across rounds.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.cols == nil || c.n == 0 {
		panic(fmt.Sprintf("nn: %s: Backward before train-mode Forward", c.name))
	}
	c.gRows = tensor.EnsureShape(c.gRows, c.n*c.outH*c.outW, c.outC)
	tensor.NCHWToRowsInto(c.gRows, grad) // [n*oh*ow, outC]
	tensor.ConvWeightGradAcc(c.w.G, c.cols, c.gRows)
	tensor.ConvBiasGradAcc(c.b.G, grad)
	if c.skipDX {
		return nil
	}
	c.dCols = tensor.EnsureShape(c.dCols, c.n, c.inC*c.kh*c.kw, c.outH*c.outW)
	c.dx = tensor.EnsureShape(c.dx, c.n, c.inC, c.inH, c.inW)
	return tensor.ConvInputGradInto(c.dx, c.dCols, grad, c.w.W, c.kh, c.kw, c.stride, c.pad)
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }
