package nn

import (
	"math"
	"testing"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

// reluReference is ReLU's branching loop, retained (like
// tensor.Im2ColNaive) as the reference the bit-mask layer is held to:
// v where v > 0, else +0, with the mask recording the test. mask may
// be nil (eval mode).
func reluReference(od []float32, mask []bool, xd []float32) {
	for i, v := range xd {
		on := v > 0
		if mask != nil {
			mask[i] = on
		}
		if on {
			od[i] = v
		} else {
			od[i] = 0
		}
	}
}

// reluBackwardReference passes gd where mask is set, else +0.
func reluBackwardReference(dd, gd []float32, mask []bool) {
	for i, on := range mask {
		if on {
			dd[i] = gd[i]
		} else {
			dd[i] = 0
		}
	}
}

// maxPoolReference is MaxPool2D's general loop, retained as the
// reference for the 2×2 fast path: each window visits its positions row
// by row and moves only on a strict >, so the first max wins a tie.
func maxPoolReference(xd []float32, n, c, h, w, k, stride int) (od []float32, argmax []int) {
	oh := tensor.ConvOutSize(h, k, stride, 0)
	ow := tensor.ConvOutSize(w, k, stride, 0)
	od = make([]float32, n*c*oh*ow)
	argmax = make([]int, n*c*oh*ow)
	for in := 0; in < n; in++ {
		for ch := 0; ch < c; ch++ {
			base := (in*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					iy0, ix0 := oy*stride, ox*stride
					bestIdx := base + iy0*w + ix0
					best := xd[bestIdx]
					for ky := 0; ky < k && iy0+ky < h; ky++ {
						for kx := 0; kx < k && ix0+kx < w; kx++ {
							idx := base + (iy0+ky)*w + ix0 + kx
							if xd[idx] > best {
								best, bestIdx = xd[idx], idx
							}
						}
					}
					oIdx := ((in*c+ch)*oh+oy)*ow + ox
					od[oIdx], argmax[oIdx] = best, bestIdx
				}
			}
		}
	}
	return od, argmax
}

// specialPalette holds the values whose handling a select-by-mask
// kernel could get wrong: NaNs of both signs and two payloads, both
// zeros, both infinities, the smallest denormals, the extremes, and a
// few small integers that make ties common.
var specialPalette = []float32{
	float32(math.NaN()),
	math.Float32frombits(0x7fc00001),
	math.Float32frombits(0xffc00000),
	0,
	float32(math.Copysign(0, -1)),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	math.Float32frombits(1),
	math.Float32frombits(0x80000001),
	math.MaxFloat32,
	-math.MaxFloat32,
	1, 1, 2, 2, -1, -1,
}

// kernelInputs returns the inputs the differential tests run: normal
// noise, noise after a ReLU (half exact +0s, so ties everywhere), and
// draws from specialPalette.
func kernelInputs(seed uint64, shape ...int) map[string]*tensor.Tensor {
	r := rng.New(seed)
	normal := tensor.New(shape...)
	normal.FillNormal(r, 0, 1)
	rectified := tensor.New(shape...)
	for i, v := range normal.Data() {
		rectified.Data()[i] = max(v, 0)
	}
	special := tensor.New(shape...)
	for i := range special.Data() {
		special.Data()[i] = specialPalette[r.Intn(len(specialPalette))]
	}
	return map[string]*tensor.Tensor{"normal": normal, "rectified": rectified, "special": special}
}

func assertBits(t *testing.T, tag string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#08x), want %v (%#08x)", tag, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestReLUMatchesReference(t *testing.T) {
	for name, x := range kernelInputs(41, 3, 5, 7, 9) {
		t.Run(name, func(t *testing.T) {
			r := NewReLU("relu")
			want := make([]float32, x.Size())
			mask := make([]bool, x.Size())
			reluReference(want, mask, x.Data())

			assertBits(t, "eval forward", r.Forward(x, false).Data(), want)
			assertBits(t, "train forward", r.Forward(x, true).Data(), want)
			for i := range mask {
				if r.mask[i] != mask[i] {
					t.Fatalf("mask[%d] = %v, want %v (input %v)", i, r.mask[i], mask[i], x.Data()[i])
				}
			}
			// Backward against every input set as the gradient, so NaN,
			// -0 and infinite gradients meet both sides of the mask.
			for gname, g := range kernelInputs(42, 3, 5, 7, 9) {
				wantDX := make([]float32, g.Size())
				reluBackwardReference(wantDX, g.Data(), mask)
				assertBits(t, "backward/"+gname, r.Backward(g).Data(), wantDX)
			}
		})
	}
}

func TestMaxPoolMatchesReference(t *testing.T) {
	geoms := []struct {
		name                string
		n, c, h, w, k, step int
	}{
		{"2x2/even", 2, 3, 8, 10, 2, 2},           // fast path
		{"2x2/stage1", 2, 8, 32, 32, 2, 2},        // fast path, benchmark stage
		{"2x2/odd-h", 2, 3, 7, 8, 2, 2},           // general loop
		{"2x2/odd-w", 2, 3, 8, 9, 2, 2},           // general loop
		{"2x2/odd", 1, 2, 5, 5, 2, 2},             // general loop
		{"3x3/stride2", 2, 3, 9, 9, 3, 2},         // general loop, overlapping
		{"3x3/stride2/clipped", 2, 2, 8, 8, 3, 2}, // general loop, windows clipped at the edge
		{"2x2/stride1", 1, 2, 6, 6, 2, 1},         // general loop, overlapping
	}
	for _, geo := range geoms {
		inputs := kernelInputs(uint64(43+geo.h*geo.w), geo.n, geo.c, geo.h, geo.w)
		for name, x := range inputs {
			t.Run(geo.name+"/"+name, func(t *testing.T) {
				want, wantArg := maxPoolReference(x.Data(), geo.n, geo.c, geo.h, geo.w, geo.k, geo.step)
				p := NewMaxPool2D("pool", geo.k, geo.step)
				assertBits(t, "eval forward", p.Forward(x, false).Data(), want)
				assertBits(t, "train forward", p.Forward(x, true).Data(), want)
				for i, idx := range wantArg {
					if p.argmax[i] != idx {
						t.Fatalf("argmax[%d] = %d (%v), want %d (%v)",
							i, p.argmax[i], x.Data()[p.argmax[i]], idx, x.Data()[idx])
					}
				}
				g := tensor.New(p.out.Shape()...)
				g.FillNormal(rng.New(44), 0, 1)
				wantDX := make([]float32, x.Size())
				for o, idx := range wantArg {
					wantDX[idx] += g.Data()[o]
				}
				assertBits(t, "backward", p.Backward(g).Data(), wantDX)
			})
		}
	}
}

// TestMaxPoolTieOrder pins the tie and NaN rules on hand-written
// windows: the first of equal maxima wins, a NaN at (0,0) sticks, and a
// NaN anywhere else never wins.
func TestMaxPoolTieOrder(t *testing.T) {
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	windows := []struct {
		name   string
		win    [4]float32 // (0,0), (0,1), (1,0), (1,1)
		argmax int
	}{
		{"all equal", [4]float32{1, 1, 1, 1}, 0},
		{"tie after first", [4]float32{0, 2, 2, 1}, 1},
		{"tie at bottom", [4]float32{0, 1, 3, 3}, 2},
		{"zeros of both signs", [4]float32{negZero, 0, 0, negZero}, 0},
		{"nan first", [4]float32{nan, 5, 6, 7}, 0},
		{"nan later", [4]float32{1, nan, 0, nan}, 0},
		{"inf", [4]float32{1, float32(math.Inf(1)), float32(math.Inf(1)), 2}, 1},
	}
	for _, tc := range windows {
		x := tensor.FromSlice([]float32{tc.win[0], tc.win[1], tc.win[2], tc.win[3]}, 1, 1, 2, 2)
		p := NewMaxPool2D("pool", 2, 2)
		got := p.Forward(x, true).Data()[0]
		if p.argmax[0] != tc.argmax || math.Float32bits(got) != math.Float32bits(tc.win[tc.argmax]) {
			t.Errorf("%s: max %v at %d, want %v at %d", tc.name, got, p.argmax[0], tc.win[tc.argmax], tc.argmax)
		}
	}
}
