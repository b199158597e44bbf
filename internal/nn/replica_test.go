package nn

import (
	"strings"
	"sync"
	"testing"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

// replicaNets holds every layer type in the package between them: a conv
// trunk with normalization, a residual block and each activation and
// pool, and a second trunk ending in a global pool.
func replicaNets(seed uint64) []*Sequential {
	r := rng.New(seed)
	a := NewSequential("a",
		NewConv2D("c1", 3, 8, 3, 3, 1, 1, r),
		NewBatchNorm("bn", 8),
		NewReLU("r1"),
		NewResidual("res",
			NewSequential("body", NewConv2D("c2", 8, 8, 3, 3, 1, 1, r), NewReLU("r2")),
			NewConv2D("proj", 8, 8, 1, 1, 1, 0, r)),
		NewResidual("id", NewTanh("th"), nil),
		NewMaxPool2D("mp", 2, 2),
		NewDropout("do", 0.5, r),
		NewSequential("head", NewFlatten("fl"), NewDense("d1", 128, 16, r), NewTanh("th2"), NewDense("d2", 16, 4, r)),
	)
	b := NewSequential("b",
		NewConv2D("c1", 3, 4, 3, 3, 2, 1, r),
		NewGlobalAvgPool("gap"),
		NewDense("d", 4, 3, r),
	)
	// One train forward moves BatchNorm's running statistics off their
	// initial values, so a replica that did not share them would differ.
	a.Forward(randInput(seed+1, 4, 3, 8, 8), true)
	return []*Sequential{a, b}
}

// A replica computes what its source computes, bit for bit, in every
// serving view, while both run at once on different inputs; it shares
// the source's parameters instead of copying them.
func TestReplicaMatchesSource(t *testing.T) {
	views := map[string]func(*Sequential) Layer{
		"f32":  func(s *Sequential) Layer { return s },
		"f16":  func(s *Sequential) Layer { EnableF16Weights(s); return s },
		"int8": func(s *Sequential) Layer { return NewQuantizedInference(s) },
	}
	for name, view := range views {
		t.Run(name, func(t *testing.T) {
			for _, net := range replicaNets(61) {
				src := view(net)
				rep, err := Replica(src)
				if err != nil {
					t.Fatal(err)
				}
				sp, rp := src.Params(), rep.Params()
				if len(sp) != len(rp) {
					t.Fatalf("%s: replica has %d params, want %d", net.Name(), len(rp), len(sp))
				}
				for i := range sp {
					if sp[i] != rp[i] {
						t.Fatalf("%s: replica param %q is a copy, want the source's", net.Name(), sp[i].Name)
					}
				}
				xs := []*tensor.Tensor{randInput(62, 5, 3, 8, 8), randInput(63, 3, 3, 8, 8)}
				want := make([][]float32, len(xs))
				for i, x := range xs {
					want[i] = append([]float32(nil), src.Forward(x, false).Data()...)
				}
				got := make([][]float32, len(xs))
				var wg sync.WaitGroup
				for i, l := range []Layer{src, rep} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for range 20 {
							got[i] = l.Forward(xs[i], false).Data()
						}
					}()
				}
				wg.Wait()
				for i := range xs {
					assertBits(t, net.Name()+" "+name, got[i], want[i])
				}
			}
		})
	}
}

// opaque is a layer from outside the package's type set.
type opaque struct{ Layer }

func TestReplicaRejectsUnknownLayer(t *testing.T) {
	_, err := Replica(NewSequential("s", NewReLU("r"), opaque{NewReLU("inner")}))
	if err == nil || !strings.Contains(err.Error(), "no inference replica") {
		t.Fatalf("err = %v, want a no-replica error", err)
	}
}
