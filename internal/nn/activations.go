package nn

import (
	"fmt"
	"math"

	"medsplit/internal/tensor"
)

// ReLU is the rectified linear activation max(0, x).
//
// Like every layer in this package, the output and input-gradient
// tensors are layer-owned scratch, valid until the layer's next
// Forward/Backward (the Conv2D lifetime contract).
type ReLU struct {
	name string
	mask []bool
	out  *tensor.Tensor
	dx   *tensor.Tensor
}

var _ Layer = (*ReLU)(nil)

// NewReLU builds the activation.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name returns the layer name.
func (r *ReLU) Name() string { return r.name }

// boolMask widens keep to a 32-bit select mask: all ones when keep,
// zero otherwise. The compiler lowers it to a flag-set and a negate, so
// the callers below run without data-dependent branches.
func boolMask(keep bool) uint32 {
	var m uint32
	if keep {
		m = 1
	}
	return -m
}

// Forward zeroes non-positive and NaN entries. Both modes select v or
// +0 by bit mask instead of branching on the sign, so the cost does not
// depend on how the activations split.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = r.out.EnsureShapeOf(x)
	xd := x.Data()
	od := r.out.Data()[:len(xd)]
	if !train {
		for i, v := range xd {
			od[i] = math.Float32frombits(math.Float32bits(v) & boolMask(v > 0))
		}
		return r.out
	}
	// Reuse the layer-owned mask across rounds; every entry is
	// overwritten, as is every element of the dirty output scratch.
	if cap(r.mask) < len(xd) {
		r.mask = make([]bool, len(xd))
	}
	r.mask = r.mask[:len(xd)]
	mask := r.mask
	for i, v := range xd {
		keep := v > 0
		mask[i] = keep
		od[i] = math.Float32frombits(math.Float32bits(v) & boolMask(keep))
	}
	return r.out
}

// Backward passes gradient only where the input was positive, and +0
// elsewhere.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic(fmt.Sprintf("nn: %s: Backward before train-mode Forward", r.name))
	}
	if grad.Size() != len(r.mask) {
		panic(fmt.Sprintf("nn: %s: gradient size %d, want %d", r.name, grad.Size(), len(r.mask)))
	}
	r.dx = r.dx.EnsureShapeOf(grad)
	mask := r.mask
	gd := grad.Data()[:len(mask)]
	dd := r.dx.Data()[:len(mask)]
	for i, keep := range mask {
		dd[i] = math.Float32frombits(math.Float32bits(gd[i]) & boolMask(keep))
	}
	return r.dx
}

// Params returns nil.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation.
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
