package nn

import (
	"fmt"
	"math"

	"medsplit/internal/tensor"
	"medsplit/internal/tensor/kernels"
)

// ReLU is the rectified linear activation max(0, x).
//
// Like every layer in this package, the output and input-gradient
// tensors are layer-owned scratch, valid until the layer's next
// Forward/Backward (the Conv2D lifetime contract). For Backward it
// caches its own output: y > 0 exactly where x > 0.
type ReLU struct {
	name string
	out  *tensor.Tensor // shared train/eval scratch
	y    *tensor.Tensor // backward cache; nil after an eval Forward
	dx   *tensor.Tensor
}

var _ Layer = (*ReLU)(nil)

// NewReLU builds the activation.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name returns the layer name.
func (r *ReLU) Name() string { return r.name }

// Forward zeroes non-positive and NaN entries through kernels.ReLU, a
// branch-free select, so the cost does not depend on how the
// activations split.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = r.out.EnsureShapeOf(x)
	kernels.ReLU(r.out.Data(), x.Data())
	r.y = nil
	if train {
		r.y = r.out
	}
	return r.out
}

// Backward passes gradient only where the output, and so the input, was
// positive, and +0 elsewhere.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.y == nil {
		panic(fmt.Sprintf("nn: %s: Backward before train-mode Forward", r.name))
	}
	if grad.Size() != r.y.Size() {
		panic(fmt.Sprintf("nn: %s: gradient size %d, want %d", r.name, grad.Size(), r.y.Size()))
	}
	r.dx = r.dx.EnsureShapeOf(grad)
	kernels.ReLUGrad(r.dx.Data(), grad.Data(), r.y.Data())
	return r.dx
}

// Params returns nil.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation. For Backward it caches its
// own output y.
type Tanh struct {
	name string
	out  *tensor.Tensor // shared train/eval scratch
	y    *tensor.Tensor // backward cache; nil after an eval Forward
	dx   *tensor.Tensor
}

var _ Layer = (*Tanh)(nil)

// NewTanh builds the activation.
func NewTanh(name string) *Tanh { return &Tanh{name: name} }

// Name returns the layer name.
func (t *Tanh) Name() string { return t.name }

// Forward applies tanh.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t.out = t.out.EnsureShapeOf(x)
	out := t.out
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		od[i] = float32(math.Tanh(float64(v)))
	}
	if train {
		t.y = out
	} else {
		// Eval overwrites the shared scratch; invalidate the backward
		// cache so a stale Backward panics instead of using eval values.
		t.y = nil
	}
	return out
}

// Backward uses dy/dx = 1 - y² from the cached output.
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if t.y == nil {
		panic(fmt.Sprintf("nn: %s: Backward before train-mode Forward", t.name))
	}
	t.dx = t.dx.EnsureShapeOf(grad)
	dx := t.dx
	gd, dd, yd := grad.Data(), dx.Data(), t.y.Data()
	for i := range gd {
		dd[i] = gd[i] * (1 - yd[i]*yd[i])
	}
	return dx
}

// Params returns nil.
func (t *Tanh) Params() []*Param { return nil }
