package serve

import (
	"math"
	"strings"
	"testing"

	"medsplit/internal/nn"
	"medsplit/internal/tensor"
)

// withPrecision returns tc with the given inference precision.
func withPrecision(tc TenantConfig, p string) TenantConfig {
	tc.InferPrecision = p
	return tc
}

// TestInferPrecisionF32ExplicitBitIdentical pins that spelling the
// default out ("f32") changes nothing: split inference stays
// bit-identical to the local forward.
func TestInferPrecisionF32ExplicitBitIdentical(t *testing.T) {
	forSlots(t, func(t *testing.T, slots int) {
		x := randInput(3, 310)
		got := inferOnLastLane(t, slots, withPrecision(inferTenant("alpha", 5, ""), "f32"), x)
		wantExact(t, got, localForward(t, 5, x, nil))
	})
}

// TestInferPrecisionF16CloseToF32 serves a tenant at f16 weight storage
// and holds the logits to the f32 reference within half-precision
// weight rounding.
func TestInferPrecisionF16CloseToF32(t *testing.T) {
	forSlots(t, func(t *testing.T, slots int) {
		x := randInput(4, 311)
		got := inferOnLastLane(t, slots, withPrecision(inferTenant("alpha", 5, ""), "f16"), x)
		want := localForward(t, 5, x, nil)
		assertLogitsClose(t, got, want, 2e-2, 4)
	})
}

// TestInferPrecisionInt8LogitEquivalence serves a tenant at int8 and
// holds the served logits to the f32 reference within the documented
// quantization tolerance, with matching argmax decisions.
func TestInferPrecisionInt8LogitEquivalence(t *testing.T) {
	forSlots(t, func(t *testing.T, slots int) {
		x := randInput(8, 312)
		got := inferOnLastLane(t, slots, withPrecision(inferTenant("alpha", 5, ""), "int8"), x)
		want := localForward(t, 5, x, nil)
		assertLogitsClose(t, got, want, 5e-2, 7)
	})
}

// assertLogitsClose checks absolute logit error against tol and that at
// least minAgree of the rows keep their argmax.
func assertLogitsClose(t *testing.T, got, want *tensor.Tensor, tol float64, minAgree int) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
	}
	g, w := got.Data(), want.Data()
	for i := range g {
		if math.Abs(float64(g[i]-w[i])) > tol {
			t.Fatalf("logit %d: %v vs %v exceeds tolerance %v", i, g[i], w[i], tol)
		}
	}
	rows, cols := want.Dim(0), want.Dim(1)
	agree := 0
	for r := 0; r < rows; r++ {
		if argmax(g[r*cols:(r+1)*cols]) == argmax(w[r*cols:(r+1)*cols]) {
			agree++
		}
	}
	if agree < minAgree {
		t.Fatalf("argmax agreement %d/%d, want >= %d", agree, rows, minAgree)
	}
}

func argmax(d []float32) int {
	best, bi := d[0], 0
	for i, v := range d[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// TestInferPrecisionValidated pins config validation: unknown precision
// strings are a construction-time error, not a serving-time surprise.
func TestInferPrecisionValidated(t *testing.T) {
	_, err := NewManager(Config{Tenants: []TenantConfig{
		withPrecision(inferTenant("alpha", 5, ""), "bf16"),
	}})
	if err == nil || !strings.Contains(err.Error(), "infer precision") {
		t.Fatalf("err = %v, want infer precision config error", err)
	}
}

// TestCachePrecisionSurvivesBuild pins that the cache derives the
// serving view from the precision setting: an int8 tenant's ensure
// returns a quantized model, a default tenant's the raw back half.
func TestCachePrecisionSurvivesBuild(t *testing.T) {
	tc := inferTenant("alpha", 5, "")
	c := &modelCache{name: "alpha", build: tc.BuildBack, precision: "int8"}
	m, _, err := c.ensure(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*nn.QuantizedInference); !ok {
		t.Fatalf("int8 cache served %T, want *nn.QuantizedInference", m)
	}

	c2 := &modelCache{name: "beta", build: tc.BuildBack}
	m2, _, err := c2.ensure(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.(*nn.Sequential); !ok {
		t.Fatalf("default cache served %T, want *nn.Sequential", m2)
	}
}
