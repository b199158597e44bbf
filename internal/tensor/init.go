package tensor

import (
	"math"

	"medsplit/internal/rng"
)

// FillNormal fills t with N(mean, std) variates drawn from r.
func (t *Tensor) FillNormal(r *rng.RNG, mean, std float32) {
	for i := range t.data {
		t.data[i] = mean + std*r.NormFloat32()
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
// ReLU networks such as the paper's VGG and ResNet models.
func (t *Tensor) HeInit(r *rng.RNG, fanIn int) {
	std := float32(math.Sqrt(2 / float64(fanIn)))
	t.FillNormal(r, 0, std)
}
