package nn

import (
	"fmt"

	"medsplit/internal/tensor"
	"medsplit/internal/tensor/kernels"
)

// MaxPool2D is a max-pooling layer over NCHW input with a square window.
// Each window's max is one chain over its positions, row by row, that
// moves only on a strict >: the first of equal maxima wins, a NaN in
// the first position sticks and a later NaN never wins. For Backward it
// caches its input and recomputes each window's winner from it, so the
// input must stay unchanged until then, as every training loop leaves
// it.
type MaxPool2D struct {
	name      string
	k, stride int
	x         *tensor.Tensor // backward cache: the input; nil after an eval Forward
	out       *tensor.Tensor // forward output scratch (layer lifetime contract)
	dx        *tensor.Tensor // backward input-gradient scratch
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D builds a k×k max pool with the given stride (use k ==
// stride for the classic non-overlapping pool).
func NewMaxPool2D(name string, k, stride int) *MaxPool2D {
	return &MaxPool2D{name: name, k: k, stride: stride}
}

// Name returns the layer name.
func (m *MaxPool2D) Name() string { return m.name }

// fast reports whether x [n, c, h, w] takes the 2×2 kernels: k and
// stride 2 over even planes, so every window is whole and the planes
// stack into one kernel call.
func (m *MaxPool2D) fast(h, w int) bool {
	return m.k == 2 && m.stride == 2 && h%2 == 0 && w%2 == 0
}

// Forward pools x [n, c, h, w] down to [n, c, oh, ow].
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s: MaxPool2D input %v, want rank 4", m.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutSize(h, m.k, m.stride, 0)
	ow := tensor.ConvOutSize(w, m.k, m.stride, 0)
	m.out = tensor.EnsureShape(m.out, n, c, oh, ow)
	xd, od := x.Data(), m.out.Data() // every output is written below
	if m.fast(h, w) {
		kernels.MaxPool2x2(od, xd, n*c*h, w)
	} else {
		m.eachWinner(xd, n*c, h, w, func(o, i int) { od[o] = xd[i] })
	}
	m.x = nil
	if train {
		m.x = x
	}
	return m.out
}

// eachWinner calls fn, in output order, with each output's index and
// the index of the input that wins its window, for any window
// geometry. A window clipped at the plane's edge visits only its
// positions inside the plane.
func (m *MaxPool2D) eachWinner(xd []float32, planes, h, w int, fn func(o, i int)) {
	oh := tensor.ConvOutSize(h, m.k, m.stride, 0)
	ow := tensor.ConvOutSize(w, m.k, m.stride, 0)
	o := 0
	for p := 0; p < planes; p++ {
		base := p * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				iy0, ix0 := oy*m.stride, ox*m.stride
				best := base + iy0*w + ix0
				for iy := iy0; iy < min(iy0+m.k, h); iy++ {
					for ix := ix0; ix < min(ix0+m.k, w); ix++ {
						if i := base + iy*w + ix; xd[i] > xd[best] {
							best = i
						}
					}
				}
				fn(o, best)
				o++
			}
		}
	}
}

// Backward routes each output gradient to the input position that won
// its window, recomputed from the cached input.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.x == nil {
		panic(fmt.Sprintf("nn: %s: Backward before train-mode Forward", m.name))
	}
	if grad.Size() != m.out.Size() {
		panic(fmt.Sprintf("nn: %s: gradient size %d, want %d", m.name, grad.Size(), m.out.Size()))
	}
	n, c, h, w := m.x.Dim(0), m.x.Dim(1), m.x.Dim(2), m.x.Dim(3)
	m.dx = m.dx.EnsureShapeOf(m.x)
	xd, dd, gd := m.x.Data(), m.dx.Data(), grad.Data()
	if m.fast(h, w) {
		kernels.MaxPool2x2Grad(dd, gd, xd, n*c*h, w)
		return m.dx
	}
	// Overlapping windows share positions and clipped ones miss some:
	// scatter-add into a zeroed dx.
	m.dx.Zero()
	m.eachWinner(xd, n*c, h, w, func(o, i int) { dd[i] += gd[o] })
	return m.dx
}

// Params returns nil: pooling has no trainable parameters.
func (m *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool averages each channel's spatial plane, mapping
// [n, c, h, w] to [n, c]. ResNet-style models use it before the
// classifier head. For Backward it caches only the input shape.
type GlobalAvgPool struct {
	name    string
	inShape []int // backward cache; empty after an eval Forward
	out     *tensor.Tensor
	dx      *tensor.Tensor
}

var _ Layer = (*GlobalAvgPool)(nil)

// NewGlobalAvgPool builds the layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool {
	return &GlobalAvgPool{name: name}
}

// Name returns the layer name.
func (g *GlobalAvgPool) Name() string { return g.name }

// Forward averages over H and W.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s: GlobalAvgPool input %v, want rank 4", g.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g.out = tensor.EnsureShape(g.out, n, c)
	out := g.out // every element is written below
	xd := x.Data()
	inv := 1 / float32(h*w)
	for in := 0; in < n; in++ {
		for ch := 0; ch < c; ch++ {
			base := (in*c + ch) * h * w
			var s float32
			for i := 0; i < h*w; i++ {
				s += xd[base+i]
			}
			out.Set(s*inv, in, ch)
		}
	}
	g.inShape = g.inShape[:0]
	if train {
		g.inShape = append(g.inShape, n, c, h, w)
	}
	return out
}

// Backward spreads each channel gradient uniformly over its plane.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(g.inShape) == 0 {
		panic(fmt.Sprintf("nn: %s: Backward before train-mode Forward", g.name))
	}
	n, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	g.dx = tensor.EnsureShape(g.dx, g.inShape...)
	dx := g.dx // every element is written below
	dd := dx.Data()
	inv := 1 / float32(h*w)
	for in := 0; in < n; in++ {
		for ch := 0; ch < c; ch++ {
			gv := grad.At(in, ch) * inv
			base := (in*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				dd[base+i] = gv
			}
		}
	}
	return dx
}

// Params returns nil: pooling has no trainable parameters.
func (g *GlobalAvgPool) Params() []*Param { return nil }
