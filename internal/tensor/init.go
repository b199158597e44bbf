package tensor

import (
	"math"

	"medsplit/internal/parallel"
	"medsplit/internal/rng"
)

// fillNormalParallel is the element count from which FillNormal fans
// out: a serial fill of that many takes 0.6–1.2 ms on a 2-core Xeon,
// about 8 ns a variate through rng.NormFloat32s. A fan-out gains only
// where cores are idle. Where the process is busy, the chunks queue
// behind its other work and the fill can end later than the serial
// loop would. The serving tier builds its tenants' models
// concurrently, and fanning out VGG-lite's 65 536-element fc1 weight
// there lengthened its set-up by about a tenth when a variate cost
// 30 ns; at a quarter of that cost a fan-out of fc1 has less still to
// win, so the threshold stays above it.
const fillNormalParallel = 1 << 17

// FillNormal fills t with N(mean, std) variates drawn from r, in element
// order. Large tensors fan out over internal/parallel's workers, bit for
// bit as the serial loop: each worker fills an even-length chunk from a
// snapshot of r taken after skipping the chunks before it
// (rng.SkipNorm), and r ends where the serial loop leaves it.
func (t *Tensor) FillNormal(r *rng.RNG, mean, std float32) {
	n := len(t.data)
	if parallel.Serial(n, n, fillNormalParallel) {
		fillNormal(t.data, r, mean, std)
		return
	}
	w := parallel.Workers()
	chunk := ((n+w-1)/w + 1) &^ 1
	starts := make([]rng.Snapshot, 0, (n+chunk-1)/chunk)
	for i0 := 0; i0 < n; i0 += chunk {
		starts = append(starts, r.Snapshot())
		r.SkipNorm(min(chunk, n-i0))
	}
	parallel.For(len(starts), n, fillNormalParallel, func(c0, c1 int) {
		var cr rng.RNG
		for c := c0; c < c1; c++ {
			cr.Restore(starts[c])
			fillNormal(t.data[c*chunk:min((c+1)*chunk, n)], &cr, mean, std)
		}
	})
}

// fillNormal is the serial loop d[i] = mean + std·r.NormFloat32(),
// with the draws made in one call.
func fillNormal(d []float32, r *rng.RNG, mean, std float32) {
	r.NormFloat32s(d)
	for i, n := range d {
		d[i] = mean + std*n
	}
}

// FillUniform fills t with uniform variates in [lo, hi).
func (t *Tensor) FillUniform(r *rng.RNG, lo, hi float32) {
	span := hi - lo
	for i := range t.data {
		t.data[i] = lo + span*r.Float32()
	}
}

// HeInit fills t with He-normal weights for a layer with the given
// fan-in: N(0, sqrt(2/fanIn)). It is the standard initialization for
// ReLU networks such as the paper's VGG and ResNet models. Like
// FillNormal, it fans large tensors out, bit-identical to one serial
// loop.
func (t *Tensor) HeInit(r *rng.RNG, fanIn int) {
	std := float32(math.Sqrt(2 / float64(fanIn)))
	t.FillNormal(r, 0, std)
}
