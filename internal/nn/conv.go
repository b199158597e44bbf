package nn

import (
	"fmt"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW input, lowered to matrix
// multiplication with im2col. Weights are stored as
// [outC, inC*kh*kw] so both forward and backward are single GEMMs.
//
// The layer owns persistent scratch (the im2col column matrix and the
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

	cols        *tensor.Tensor // persistent im2col scratch, valid after any Forward
	gRows       *tensor.Tensor // backward scratch: grad in rows layout
	dCols       *tensor.Tensor // backward scratch: column-matrix gradient
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

// Forward computes the convolution of x [n, inC, h, w] with the fused
// im2col → GEMM → NCHW path: the column matrix is built into reusable
// scratch and the GEMM writes the NCHW output (bias included) directly,
// skipping the intermediate rows matrix and its repack pass.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.inC {
		panic(fmt.Sprintf("nn: %s: Conv2D input %v, want [n,%d,h,w]", c.name, x.Shape(), c.inC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutSize(h, c.kh, c.stride, c.pad)
	ow := tensor.ConvOutSize(w, c.kw, c.stride, c.pad)
	c.cols = tensor.EnsureShape(c.cols, n*oh*ow, c.inC*c.kh*c.kw)
	tensor.Im2ColInto(c.cols, x, c.kh, c.kw, c.stride, c.pad)
	c.out = tensor.EnsureShape(c.out, n, c.outC, oh, ow)
	out := c.out
	tensor.ConvGemmInto(out, c.cols, c.w.W, c.b.W)
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
	rows := c.n * c.outH * c.outW
	c.gRows = tensor.EnsureShape(c.gRows, rows, c.outC)
	tensor.NCHWToRowsInto(c.gRows, grad) // [n*oh*ow, outC]
	tensor.MatMulTAAcc(c.w.G, c.gRows, c.cols)
	tensor.SumRowsAcc(c.b.G, c.gRows)
	if c.skipDX {
		return nil
	}
	c.dCols = tensor.EnsureShape(c.dCols, rows, c.inC*c.kh*c.kw)
	tensor.MatMulInto(c.dCols, c.gRows, c.w.W) // [n*oh*ow, inC*kh*kw]
	// Col2ImInto zeroes dst before accumulating, so dirty scratch is fine.
	c.dx = tensor.EnsureShape(c.dx, c.n, c.inC, c.inH, c.inW)
	return tensor.Col2ImInto(c.dx, c.dCols, c.kh, c.kw, c.stride, c.pad)
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }
