package nn

import (
	"fmt"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

// Flatten reshapes [n, d1, d2, ...] into [n, d1*d2*...]. It bridges the
// convolutional trunk and the dense classifier head.
type Flatten struct {
	name    string
	inShape []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten builds the layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name returns the layer name.
func (f *Flatten) Name() string { return f.name }

// Forward flattens all but the leading (batch) dimension.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: %s: Flatten input %v, want rank >= 2", f.name, x.Shape()))
	}
	if train {
		f.inShape = f.inShape[:0]
		for i := 0; i < x.Rank(); i++ {
			f.inShape = append(f.inShape, x.Dim(i))
		}
	}
	n := x.Dim(0)
	return x.Reshape(n, x.Size()/n)
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if f.inShape == nil {
		panic(fmt.Sprintf("nn: %s: Backward before train-mode Forward", f.name))
	}
	return grad.Reshape(f.inShape...)
}

// Params returns nil.
func (f *Flatten) Params() []*Param { return nil }

// Dropout randomly zeroes activations during training (inverted dropout:
// survivors are scaled by 1/(1-rate) so eval mode is the identity).
type Dropout struct {
	name string
	rate float32
	r    *rng.RNG
	mask []float32
}

var _ Layer = (*Dropout)(nil)

// NewDropout builds a dropout layer with the given drop rate in [0, 1).
func NewDropout(name string, rate float32, r *rng.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: %s: dropout rate %v out of [0,1)", name, rate))
	}
	return &Dropout{name: name, rate: rate, r: r}
}

// Name returns the layer name.
func (d *Dropout) Name() string { return d.name }

// Forward drops activations in train mode and is the identity otherwise.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.rate == 0 {
		return x
	}
	keep := 1 - d.rate
	scale := 1 / keep
	out := tensor.New(x.Shape()...)
	mask := make([]float32, x.Size())
	xd, od := x.Data(), out.Data()
	for i := range xd {
		if d.r.Float32() < keep {
			mask[i] = scale
			od[i] = xd[i] * scale
		}
	}
	d.mask = mask
	return out
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.rate == 0 {
		return grad
	}
	if d.mask == nil {
		panic(fmt.Sprintf("nn: %s: Backward before train-mode Forward", d.name))
	}
	dx := tensor.New(grad.Shape()...)
	gd, dd := grad.Data(), dx.Data()
	for i, m := range d.mask {
		dd[i] = gd[i] * m
	}
	return dx
}

// Params returns nil.
func (d *Dropout) Params() []*Param { return nil }

// Residual computes body(x) + skip(x), the building block of ResNet-style
// models. A nil skip means the identity shortcut; otherwise skip is
// typically a 1×1 strided convolution matching the body's output shape.
type Residual struct {
	name string
	body Layer
	skip Layer // nil = identity
}

var _ Layer = (*Residual)(nil)

// NewResidual builds a residual block.
func NewResidual(name string, body, skip Layer) *Residual {
	return &Residual{name: name, body: body, skip: skip}
}

// Name returns the block name.
func (r *Residual) Name() string { return r.name }

// Forward computes body(x) + skip(x).
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := r.body.Forward(x, train)
	var sc *tensor.Tensor
	if r.skip != nil {
		sc = r.skip.Forward(x, train)
	} else {
		sc = x
	}
	if !tensor.SameShape(out, sc) {
		panic(fmt.Sprintf("nn: %s: residual shape mismatch body %v vs skip %v", r.name, out.Shape(), sc.Shape()))
	}
	return tensor.Add(out, sc)
}

// Backward routes the gradient through both branches and sums the input
// gradients.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := r.body.Backward(grad)
	if r.skip != nil {
		dx = tensor.Add(dx, r.skip.Backward(grad))
	} else {
		dx = tensor.Add(dx, grad)
	}
	return dx
}

// Params returns the parameters of both branches.
func (r *Residual) Params() []*Param {
	out := append([]*Param(nil), r.body.Params()...)
	if r.skip != nil {
		out = append(out, r.skip.Params()...)
	}
	return out
}
