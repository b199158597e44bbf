package nn

import (
	"math"
	"testing"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/tensor/kernels"
)

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy{}.Loss(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient rows sum to zero (softmax minus one-hot).
	for i := 0; i < 2; i++ {
		var s float64
		for c := 0; c < 4; c++ {
			s += float64(grad.At(i, c))
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("grad row %d sums to %v", i, s)
		}
	}
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	r := rng.New(1)
	logits := tensor.New(3, 5)
	logits.FillNormal(r, 0, 2)
	labels := []int{1, 4, 0}
	_, grad := SoftmaxCrossEntropy{}.Loss(logits, labels)

	const eps = 1e-3
	for i := 0; i < logits.Size(); i++ {
		d := logits.Data()
		orig := d[i]
		d[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy{}.Loss(logits, labels)
		d[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy{}.Loss(logits, labels)
		d[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(float64(grad.Data()[i])-numeric) > 1e-3 {
			t.Fatalf("coord %d: analytic %v vs numeric %v", i, grad.Data()[i], numeric)
		}
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.FromSlice([]float32{100, 0, 0}, 1, 3)
	loss, _ := SoftmaxCrossEntropy{}.Loss(logits, []int{0})
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction: loss = %v", loss)
	}
}

func TestCrossEntropyPanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label should panic")
		}
	}()
	SoftmaxCrossEntropy{}.Loss(tensor.New(1, 3), []int{3})
}

func TestMSEGradientNumeric(t *testing.T) {
	r := rng.New(2)
	logits := tensor.New(2, 3)
	logits.FillNormal(r, 0, 1)
	labels := []int{2, 0}
	_, grad := MSE{}.Loss(logits, labels)
	const eps = 1e-3
	for i := 0; i < logits.Size(); i++ {
		d := logits.Data()
		orig := d[i]
		d[i] = orig + eps
		lp, _ := MSE{}.Loss(logits, labels)
		d[i] = orig - eps
		lm, _ := MSE{}.Loss(logits, labels)
		d[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(float64(grad.Data()[i])-numeric) > 1e-3 {
			t.Fatalf("coord %d: analytic %v vs numeric %v", i, grad.Data()[i], numeric)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 0, // pred 0
		0, 1, // pred 1
		5, 3, // pred 0
	}, 3, 2)
	if got := Accuracy(logits, []int{0, 1, 1}); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("accuracy = %v, want 2/3", got)
	}
}

func TestSGDStep(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{1, 2}, 2))
	copy(p.G.Data(), []float32{0.5, -0.5})
	(&SGD{LR: 0.1}).Step([]*Param{p})
	if p.W.At(0) != 0.95 || p.W.At(1) != 2.05 {
		t.Fatalf("after step: %v", p.W.Data())
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{1}, 1))
	// Zero gradient: only decay acts. w ← w − lr·wd·w = 1 − 0.1·0.5 = 0.95.
	(&SGD{LR: 0.1, WeightDecay: 0.5}).Step([]*Param{p})
	if d := p.W.At(0) - 0.95; d > 1e-6 || d < -1e-6 {
		t.Fatalf("decayed weight %v, want 0.95", p.W.At(0))
	}
}

// sgdStepScalar is SGD.Step as one scalar loop with the weight-decay
// test inside it — the form it had before the decay-free case moved
// onto the vector kernel — retained as the reference.
func sgdStepScalar(s *SGD, params []*Param) {
	for _, p := range params {
		w, g := p.W.Data(), p.G.Data()
		for i := range w {
			grad := g[i]
			if s.WeightDecay != 0 {
				grad += s.WeightDecay * w[i]
			}
			w[i] -= s.LR * grad
		}
	}
}

// SGD.Step must land on the scalar reference's bits, with and without
// weight decay, on the assembly kernels and on the generic ones, at
// sizes with and without a sub-vector tail, for several steps running.
func TestSGDStepMatchesScalarReference(t *testing.T) {
	for _, wd := range []float32{0, 1e-3} {
		for _, arm := range []string{"", "generic"} {
			r := rng.New(41)
			var got, want []*Param
			for _, n := range []int{1, 7, 8, 33, 64 * 31} {
				w := tensor.New(n)
				w.FillNormal(r, 0, 1)
				w.Data()[0] = 0 // w − lr·g at w = +0 keeps the sign rules honest
				got = append(got, NewParam("got", w))
				want = append(want, NewParam("want", w.Clone()))
			}
			opt := &SGD{LR: 0.037, WeightDecay: wd}
			kernels.UseArm(arm)
			for step := 0; step < 3; step++ {
				for i := range got {
					got[i].G.FillNormal(r, 0, 0.5)
					got[i].G.Data()[0] = 0
					want[i].G.CopyFrom(got[i].G)
				}
				opt.Step(got)
				sgdStepScalar(opt, want)
			}
			kernels.UseArm("")
			for i := range got {
				gd, wdat := got[i].W.Data(), want[i].W.Data()
				for j := range gd {
					if math.Float32bits(gd[j]) != math.Float32bits(wdat[j]) {
						t.Fatalf("wd=%v arm=%q n=%d: w[%d] = %#08x, scalar reference %#08x",
							wd, arm, len(gd), j, math.Float32bits(gd[j]), math.Float32bits(wdat[j]))
					}
				}
			}
		}
	}
}

func TestMomentumAccumulatesVelocity(t *testing.T) {
	p := NewParam("w", tensor.New(1))
	opt := &Momentum{LR: 1, Mu: 0.5}
	copy(p.G.Data(), []float32{1})
	opt.Step([]*Param{p}) // v = -1, w = -1
	opt.Step([]*Param{p}) // v = -1.5, w = -2.5
	if d := p.W.At(0) + 2.5; d > 1e-6 || d < -1e-6 {
		t.Fatalf("w = %v, want -2.5", p.W.At(0))
	}
}

// All three optimizers must drive a quadratic objective to its minimum.
func TestOptimizersConvergeOnQuadratic(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Optimizer
	}{
		{"sgd", &SGD{LR: 0.1}},
		{"momentum", &Momentum{LR: 0.05, Mu: 0.9}},
		{"adam", &Adam{LR: 0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Minimize f(w) = ||w - target||² from w = 0.
			target := []float32{3, -2, 1}
			p := NewParam("w", tensor.New(3))
			for step := 0; step < 300; step++ {
				ZeroGrads([]*Param{p})
				for i, tv := range target {
					p.G.Data()[i] = 2 * (p.W.Data()[i] - tv)
				}
				tc.opt.Step([]*Param{p})
			}
			for i, tv := range target {
				if math.Abs(float64(p.W.Data()[i]-tv)) > 0.05 {
					t.Fatalf("%s: w[%d] = %v, want %v", tc.name, i, p.W.Data()[i], tv)
				}
			}
		})
	}
}

func TestClipGrads(t *testing.T) {
	p := NewParam("w", tensor.New(3))
	copy(p.G.Data(), []float32{-10, 0.5, 10})
	ClipGrads([]*Param{p}, 1)
	want := []float32{-1, 0.5, 1}
	for i, v := range p.G.Data() {
		if v != want[i] {
			t.Fatalf("clipped = %v, want %v", p.G.Data(), want)
		}
	}
}

func TestCopyParams(t *testing.T) {
	r := rng.New(3)
	a := NewDense("a", 3, 2, r)
	b := NewDense("b", 3, 2, r)
	if err := CopyParams(a.Params(), b.Params()); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(a.w.W, b.w.W, 0) {
		t.Fatal("weights differ after CopyParams")
	}
	c := NewDense("c", 4, 2, r)
	if err := CopyParams(a.Params(), c.Params()); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestAverageInto(t *testing.T) {
	mk := func(vals ...float32) []*tensor.Tensor {
		ts := make([]*tensor.Tensor, len(vals))
		for i, v := range vals {
			ts[i] = tensor.New(2)
			ts[i].Data()[0] = v
			ts[i].Data()[1] = 2 * v
		}
		return ts
	}
	dst := mk(0, 0)
	srcs := [][]*tensor.Tensor{mk(1, 10), mk(3, 30)}
	if err := AverageInto(dst, srcs, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if got := dst[0].Data()[0]; got != 2 {
		t.Fatalf("uniform average = %v, want 2", got)
	}
	if err := AverageInto(dst, srcs, []float64{3, 1}); err != nil {
		t.Fatal(err)
	}
	// (3·1 + 1·3)/4 = 1.5 and (3·10 + 1·30)/4 = 15.
	if got := dst[0].Data()[0]; got != 1.5 {
		t.Fatalf("dst[0] = %v, want 1.5", got)
	}
	if got := dst[1].Data()[1]; got != 30 {
		t.Fatalf("dst[1][1] = %v, want 30", got)
	}
	// Weights need not be normalized, and a zero weight drops a source.
	if err := AverageInto(dst, srcs, []float64{0, 8}); err != nil {
		t.Fatal(err)
	}
	if got := dst[1].Data()[0]; got != 30 {
		t.Fatalf("zero-weight source leaked: %v, want 30", got)
	}

	if err := AverageInto(dst, nil, nil); err == nil {
		t.Fatal("no sources accepted")
	}
	if err := AverageInto(dst, srcs, []float64{1}); err == nil {
		t.Fatal("weight count mismatch accepted")
	}
	if err := AverageInto(dst, srcs, []float64{-1, 2}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := AverageInto(dst, srcs, []float64{0, 0}); err == nil {
		t.Fatal("zero total weight accepted")
	}
	if err := AverageInto(dst, [][]*tensor.Tensor{mk(1)}, []float64{1}); err == nil {
		t.Fatal("source length mismatch accepted")
	}
	short := mk(1, 2)
	short[1] = tensor.New(3)
	if err := AverageInto(dst, [][]*tensor.Tensor{short}, []float64{1}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestEncodeDecodeModelRoundTrip(t *testing.T) {
	r := rng.New(5)
	src := NewSequential("m", NewDense("fc1", 4, 3, r), NewDense("fc2", 3, 2, r))
	dst := NewSequential("m", NewDense("fc1", 4, 3, r), NewDense("fc2", 3, 2, r))
	buf := EncodeModelInto(nil, src.Params(), nil)
	scratch, err := DecodeModelScratch(nil, dst.Params(), nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range src.Params() {
		if !tensor.AllClose(p.W, dst.Params()[i].W, 0) {
			t.Fatalf("param %d differs after round trip", i)
		}
	}
	// Corrupt payload errors.
	if _, err := DecodeModelScratch(scratch, dst.Params(), nil, buf[:10]); err == nil {
		t.Fatal("truncated buffer must error")
	}
	// Trailing junk errors.
	if _, err := DecodeModelScratch(scratch, dst.Params(), nil, append(buf, 0)); err == nil {
		t.Fatal("trailing bytes must error")
	}
	// A structurally different model is rejected, not mis-installed.
	other := NewSequential("m", NewDense("fc1", 4, 2, r), NewDense("fc2", 2, 2, r))
	if _, err := DecodeModelScratch(nil, other.Params(), nil, buf); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestParamCount(t *testing.T) {
	r := rng.New(7)
	seq := NewSequential("m", NewDense("fc", 10, 5, r))
	if got := ParamCount(seq.Params()); got != 55 {
		t.Fatalf("ParamCount = %d, want 55", got)
	}
}

func TestZeroGrads(t *testing.T) {
	p := NewParam("w", tensor.New(2))
	copy(p.G.Data(), []float32{1, 2})
	ZeroGrads([]*Param{p})
	if p.G.At(0) != 0 || p.G.At(1) != 0 {
		t.Fatal("gradients not cleared")
	}
}

// An end-to-end sanity check: a small MLP must learn XOR.
func TestMLPLearnsXOR(t *testing.T) {
	r := rng.New(11)
	net := NewSequential("xor",
		NewDense("fc1", 2, 16, r),
		NewTanh("tanh"),
		NewDense("fc2", 16, 2, r),
	)
	x := tensor.FromSlice([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	opt := &Adam{LR: 0.05}
	loss := SoftmaxCrossEntropy{}
	var last float64
	for i := 0; i < 500; i++ {
		ZeroGrads(net.Params())
		logits := net.Forward(x, true)
		l, grad := loss.Loss(logits, labels)
		net.Backward(grad)
		opt.Step(net.Params())
		last = l
	}
	if last > 0.05 {
		t.Fatalf("XOR loss after training: %v", last)
	}
	if acc := Accuracy(net.Forward(x, false), labels); acc != 1 {
		t.Fatalf("XOR accuracy %v, want 1", acc)
	}
}
