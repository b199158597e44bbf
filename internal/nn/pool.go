package nn

import (
	"fmt"
	"math"

	"medsplit/internal/tensor"
)

// MaxPool2D is a max-pooling layer over NCHW input with a square window.
type MaxPool2D struct {
	name      string
	k, stride int
	argmax    []int // flat input index of each output's max
	inShape   []int
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

// Forward pools x [n, c, h, w] down to [n, c, oh, ow].
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s: MaxPool2D input %v, want rank 4", m.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutSize(h, m.k, m.stride, 0)
	ow := tensor.ConvOutSize(w, m.k, m.stride, 0)
	m.out = tensor.EnsureShape(m.out, n, c, oh, ow)
	out := m.out // every element is written below
	var argmax []int
	if train {
		// Reuse the layer-owned index buffer across rounds; every entry
		// is overwritten below.
		if need := n * c * oh * ow; cap(m.argmax) < need {
			argmax = make([]int, need)
		} else {
			argmax = m.argmax[:need]
		}
	}
	xd, od := x.Data(), out.Data()
	if m.k == 2 && m.stride == 2 && h%2 == 0 && w%2 == 0 {
		maxPool2x2(od, argmax, xd, n*c, h, w)
	} else {
		m.forwardGeneral(od, argmax, xd, n, c, h, w, oh, ow)
	}
	if train {
		m.argmax = argmax
		m.inShape = append(m.inShape[:0], n, c, h, w)
	}
	return out
}

// forwardGeneral pools any window geometry. A window visits its
// positions row by row and replaces the running max only on a strict
// >, so the first maximum wins a tie and a NaN in the first position
// sticks. argmax is nil in eval mode.
func (m *MaxPool2D) forwardGeneral(od []float32, argmax []int, xd []float32, n, c, h, w, oh, ow int) {
	for in := 0; in < n; in++ {
		for ch := 0; ch < c; ch++ {
			base := (in*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					iy0, ix0 := oy*m.stride, ox*m.stride
					bestIdx := base + iy0*w + ix0
					best := xd[bestIdx]
					for ky := 0; ky < m.k; ky++ {
						iy := iy0 + ky
						if iy >= h {
							break
						}
						for kx := 0; kx < m.k; kx++ {
							ix := ix0 + kx
							if ix >= w {
								break
							}
							idx := base + iy*w + ix
							if xd[idx] > best {
								best, bestIdx = xd[idx], idx
							}
						}
					}
					oIdx := ((in*c+ch)*oh+oy)*ow + ox
					od[oIdx] = best
					if argmax != nil {
						argmax[oIdx] = bestIdx
					}
				}
			}
		}
	}
}

// maxPool2x2 is forwardGeneral for k = stride = 2 over even h and w,
// where every window is whole: it loads the four values of a window and
// keeps the max with the same strict > in the same order — (0,0),
// (0,1), (1,0), (1,1) — so ties and NaNs pick the same argmax. Each
// step selects by bit mask rather than branching on the data.
func maxPool2x2(od []float32, argmax []int, xd []float32, planes, h, w int) {
	oh, ow := h/2, w/2
	for p := 0; p < planes; p++ {
		for oy := 0; oy < oh; oy++ {
			top := p*h*w + 2*oy*w
			r0 := xd[top : top+w]
			r1 := xd[top+w : top+2*w]
			o := (p*oh + oy) * ow
			orow := od[o : o+ow]
			for ox := range orow {
				ix := 2 * ox
				best, off := r0[ix], 0
				best, off = maxStep(best, off, r0[ix+1], 1)
				best, off = maxStep(best, off, r1[ix], w)
				best, off = maxStep(best, off, r1[ix+1], w+1)
				orow[ox] = best
				if argmax != nil {
					argmax[o+ox] = top + ix + off
				}
			}
		}
	}
}

// maxStep is one branch-free step of a window's running max: (v, voff)
// when v > best, else (best, off).
func maxStep(best float32, off int, v float32, voff int) (float32, int) {
	m := boolMask(v > best)
	im := int(int32(m))
	b := math.Float32bits(v)&m | math.Float32bits(best)&^m
	return math.Float32frombits(b), voff&im | off&^im
}

// Backward routes each output gradient to the input position that won the
// max.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.argmax == nil {
		panic(fmt.Sprintf("nn: %s: Backward before train-mode Forward", m.name))
	}
	if grad.Size() != len(m.argmax) {
		panic(fmt.Sprintf("nn: %s: gradient size %d, want %d", m.name, grad.Size(), len(m.argmax)))
	}
	m.dx = tensor.EnsureShape(m.dx, m.inShape...)
	m.dx.Zero() // scatter-accumulate below needs a clean slate
	dx := m.dx
	dd, gd := dx.Data(), grad.Data()
	for oIdx, iIdx := range m.argmax {
		dd[iIdx] += gd[oIdx]
	}
	return dx
}

// Params returns nil: pooling has no trainable parameters.
func (m *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool averages each channel's spatial plane, mapping
// [n, c, h, w] to [n, c]. ResNet-style models use it before the
// classifier head.
type GlobalAvgPool struct {
	name    string
	inShape []int
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
	if train {
		g.inShape = x.Shape()
	}
	return out
}

// Backward spreads each channel gradient uniformly over its plane.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if g.inShape == nil {
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
