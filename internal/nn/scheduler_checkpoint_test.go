package nn

import (
	"math"
	"testing"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

func TestConstantLR(t *testing.T) {
	s := ConstantLR(0.1)
	if s(0) != 0.1 || s(1000) != 0.1 {
		t.Fatal("constant schedule varied")
	}
}

func TestStepDecay(t *testing.T) {
	s := StepDecay(1.0, 0.5, 10)
	cases := map[int]float32{0: 1, 9: 1, 10: 0.5, 19: 0.5, 20: 0.25}
	for round, want := range cases {
		if got := s(round); math.Abs(float64(got-want)) > 1e-6 {
			t.Errorf("round %d: lr %v, want %v", round, got, want)
		}
	}
	assertPanics(t, "bad every", func() { StepDecay(1, 0.5, 0) })
}

func TestCosineDecay(t *testing.T) {
	s := CosineDecay(1.0, 0.1, 100)
	if s(0) != 1.0 {
		t.Fatalf("start %v", s(0))
	}
	mid := s(50)
	if mid < 0.5 || mid > 0.6 { // (1+0.1)/2 = 0.55
		t.Fatalf("midpoint %v", mid)
	}
	if got := s(100); got != 0.1 {
		t.Fatalf("end %v", got)
	}
	if got := s(500); got != 0.1 {
		t.Fatalf("past end %v", got)
	}
	// Monotone non-increasing.
	prev := float32(math.MaxFloat32)
	for r := 0; r <= 100; r += 5 {
		if s(r) > prev {
			t.Fatalf("schedule increased at round %d", r)
		}
		prev = s(r)
	}
	assertPanics(t, "bad total", func() { CosineDecay(1, 0, 0) })
}

func TestApplySchedule(t *testing.T) {
	opt := &SGD{LR: 1}
	if !ApplySchedule(opt, StepDecay(1, 0.1, 5), 5) {
		t.Fatal("schedule not applied")
	}
	if math.Abs(float64(opt.LR-0.1)) > 1e-7 {
		t.Fatalf("LR %v, want 0.1", opt.LR)
	}
	if ApplySchedule(opt, nil, 0) {
		t.Fatal("nil schedule applied")
	}
	// All optimizers are adjustable.
	for _, o := range []Optimizer{&SGD{}, &Momentum{}, &Adam{}} {
		if !ApplySchedule(o, ConstantLR(0.3), 0) {
			t.Fatalf("%s not adjustable", o.Name())
		}
	}
}

// buildBNModel gives the model-encoding tests a model with both params
// and state.
func buildBNModel(seed uint64) *Sequential {
	r := rng.New(seed)
	return NewSequential("ckpt-model",
		NewDense("fc1", 6, 8, r),
		NewBatchNorm("bn", 8),
		NewTanh("tanh"),
		NewDense("head", 8, 3, r),
	)
}

func TestCollectStateCoversNestedContainers(t *testing.T) {
	r := rng.New(6)
	body := NewSequential("body",
		NewConv2D("c1", 2, 2, 3, 3, 1, 1, r),
		NewBatchNorm("bn1", 2),
	)
	skip := NewSequential("skip", NewBatchNorm("bn2", 2))
	net := NewSequential("net",
		NewBatchNorm("bn0", 2),
		NewResidual("res", body, skip),
	)
	// bn0 + bn1 + bn2 → 3 BN layers × 2 tensors.
	if got := len(CollectState(net)); got != 6 {
		t.Fatalf("collected %d state tensors, want 6", got)
	}
	// Stateless models yield nil.
	if got := CollectState(NewSequential("plain", NewDense("fc", 2, 2, r))); len(got) != 0 {
		t.Fatalf("stateless model yielded %d tensors", len(got))
	}
}

func TestEncodeDecodeModelWithState(t *testing.T) {
	src := buildBNModel(7)
	x := tensor.New(8, 6)
	x.FillNormal(rng.New(8), 0, 1)
	src.Forward(x, true) // move BN stats

	dst := buildBNModel(11)
	buf := EncodeModelInto(nil, src.Params(), CollectState(src))
	if _, err := DecodeModelScratch(nil, dst.Params(), CollectState(dst), buf); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(src.Forward(x, false), dst.Forward(x, false), 0) {
		t.Fatal("model+state decode diverges")
	}
	if _, err := DecodeModelScratch(nil, dst.Params(), CollectState(dst), buf[:9]); err == nil {
		t.Fatal("truncated model accepted")
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}
