// Package dataset provides the data substrate for the reproduction: a
// procedurally generated stand-in for CIFAR-10/100 (the module builds
// offline, so the real corpora are unavailable), utilities to shard data
// across geo-distributed platforms — including the imbalanced and
// non-IID splits the paper discusses — and minibatch samplers, including
// the proportional batch sizing the paper proposes as its imbalance
// mitigation.
//
// Communication volume, the paper's Fig. 4 metric, depends only on
// tensor shapes, which SynthCIFAR matches exactly (3×32×32 inputs,
// 10- or 100-way labels). Accuracy curves keep their qualitative shape
// because the synthetic classes are separable but far from trivially so
// (class-conditional gratings and blobs under heavy noise and jitter).
package dataset

import (
	"fmt"
	"math"

	"medsplit/internal/parallel"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

// Dataset is a labeled collection of fixed-shape samples.
type Dataset struct {
	// X holds all samples; dimension 0 indexes samples.
	X *tensor.Tensor
	// Labels holds one class index per sample.
	Labels []int
	// Classes is the number of distinct classes.
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Dim(0) }

// SampleShape returns the per-sample shape (X's shape without the
// leading dimension).
func (d *Dataset) SampleShape() []int { return d.X.Shape()[1:] }

// Batch gathers the samples at the given indices into a fresh tensor and
// label slice.
func (d *Dataset) Batch(indices []int) (*tensor.Tensor, []int) {
	return d.BatchInto(nil, nil, indices)
}

// BatchInto gathers the samples at the given indices, reusing x's and
// labels' storage when their capacity suffices (both may be nil, which
// is exactly Batch). Training loops pass the previous round's batch
// back in, so the per-round gather stops allocating once batch shapes
// stabilize.
func (d *Dataset) BatchInto(x *tensor.Tensor, labels []int, indices []int) (*tensor.Tensor, []int) {
	if len(indices) == 0 {
		panic("dataset: empty batch")
	}
	sampleShape := d.SampleShape()
	sampleSize := 1
	for _, s := range sampleShape {
		sampleSize *= s
	}
	outShape := append([]int{len(indices)}, sampleShape...)
	out := tensor.EnsureShape(x, outShape...)
	if cap(labels) >= len(indices) {
		labels = labels[:len(indices)]
	} else {
		labels = make([]int, len(indices))
	}
	src := d.X.Data()
	dst := out.Data()
	for i, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			panic(fmt.Sprintf("dataset: index %d out of range [0,%d)", idx, d.Len()))
		}
		copy(dst[i*sampleSize:(i+1)*sampleSize], src[idx*sampleSize:(idx+1)*sampleSize])
		labels[i] = d.Labels[idx]
	}
	return out, labels
}

// Subset copies the samples at the given indices into a new Dataset.
func (d *Dataset) Subset(indices []int) *Dataset {
	x, labels := d.Batch(indices)
	return &Dataset{X: x, Labels: labels, Classes: d.Classes}
}

// SynthConfig parameterizes the synthetic CIFAR-style generator.
type SynthConfig struct {
	Classes int     // number of classes (10 for CIFAR-10, 100 for CIFAR-100)
	Train   int     // training sample count
	Test    int     // test sample count
	Noise   float32 // additive Gaussian pixel noise stddev (0.35 default)
	Seed    uint64
}

// withDefaults fills zero fields with usable values.
func (c SynthConfig) withDefaults() SynthConfig {
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.Train == 0 {
		c.Train = 2000
	}
	if c.Test == 0 {
		c.Test = 500
	}
	if c.Noise == 0 {
		c.Noise = 0.35
	}
	return c
}

// SynthCIFAR generates deterministic train and test splits of 3×32×32
// images. Each class owns a procedural template — two superimposed
// sinusoidal gratings plus a Gaussian color blob, all with
// class-dependent parameters — and each sample is the template under
// random translation, brightness jitter and additive noise, so a model
// must learn translation-tolerant features rather than memorize pixels.
//
// Generation is fanned out over internal/parallel's workers and is
// bit-identical to one serial loop at any worker count: each class's
// noiseless template is rendered once, over every offset a sample can
// take, and one serial pass draws every sample's jitter and records
// where its noise starts in the stream (rng.SkipNorm), so the samples
// render independently from the same draws the serial loop would use.
func SynthCIFAR(cfg SynthConfig) (train, test *Dataset) {
	cfg = cfg.withDefaults()
	gen := newSynthGen(cfg)
	train = gen.split(cfg.Train, rng.New(cfg.Seed+1))
	test = gen.split(cfg.Test, rng.New(cfg.Seed+2))
	return train, test
}

const (
	synthSize = 32
	// synthShift is the largest translation a sample takes, in pixels.
	synthShift = 3
	// canvasSize is the side of a template's canvas: every pixel any
	// translated sample reads.
	canvasSize = synthSize + 2*synthShift
	// samplePixels is one sample's float count, and so its noise draws.
	samplePixels = 3 * synthSize * synthSize
)

type classTemplate struct {
	freqA, freqB   float64 // grating frequencies
	angleA, angleB float64 // grating orientations
	phaseA, phaseB float64
	blobX, blobY   float64 // blob center in [0,1]
	blobR          float64 // blob radius
	colors         [3]float32
}

type synthGen struct {
	cfg       SynthConfig
	templates []classTemplate
	// canvases holds each class's noiseless template over
	// canvasSize×canvasSize pixels, offset by -synthShift on both axes.
	canvases [][]float32
}

func newSynthGen(cfg SynthConfig) *synthGen {
	r := rng.New(cfg.Seed)
	templates := make([]classTemplate, cfg.Classes)
	for c := range templates {
		templates[c] = classTemplate{
			freqA:  1 + 5*r.Float64(),
			freqB:  1 + 5*r.Float64(),
			angleA: math.Pi * r.Float64(),
			angleB: math.Pi * r.Float64(),
			phaseA: 2 * math.Pi * r.Float64(),
			phaseB: 2 * math.Pi * r.Float64(),
			blobX:  0.2 + 0.6*r.Float64(),
			blobY:  0.2 + 0.6*r.Float64(),
			blobR:  0.1 + 0.2*r.Float64(),
			colors: [3]float32{r.Float32(), r.Float32(), r.Float32()},
		}
	}
	// Labels cycle through the classes (split), so a split of n samples
	// uses exactly the first min(n, Classes) of them.
	// A canvas or a sample is tens of microseconds of work, so any two
	// are worth a fan-out (here and in split).
	canvases := make([][]float32, min(cfg.Classes, max(cfg.Train, cfg.Test)))
	parallel.For(len(canvases), len(canvases), 2, func(c0, c1 int) {
		for c := c0; c < c1; c++ {
			canvases[c] = templates[c].canvas()
		}
	})
	return &synthGen{cfg: cfg, templates: templates, canvases: canvases}
}

// canvas renders the template without jitter over every pixel a sample
// translated by up to ±synthShift reads. Canvas pixel (x, y) is sample
// pixel (x-synthShift-dx, y-synthShift-dy) under translation (dx, dy):
// the coordinate (float64(x)+dx)/synthSize is an exact small integer
// over a power of two either way, and the rest of the expression is the
// per-sample one verbatim, so every value is bit-identical to rendering
// the sample directly.
func (t *classTemplate) canvas() []float32 {
	const dx, dy = -synthShift, -synthShift
	out := make([]float32, canvasSize*canvasSize)
	cosA, sinA := math.Cos(t.angleA), math.Sin(t.angleA)
	cosB, sinB := math.Cos(t.angleB), math.Sin(t.angleB)
	for y := 0; y < canvasSize; y++ {
		fy := (float64(y) + dy) / synthSize
		for x := 0; x < canvasSize; x++ {
			fx := (float64(x) + dx) / synthSize
			// Two gratings.
			ga := math.Sin(2*math.Pi*t.freqA*(fx*cosA+fy*sinA) + t.phaseA)
			gb := math.Sin(2*math.Pi*t.freqB*(fx*cosB+fy*sinB) + t.phaseB)
			// Gaussian blob.
			bx, by := fx-t.blobX, fy-t.blobY
			blob := math.Exp(-(bx*bx + by*by) / (2 * t.blobR * t.blobR))
			out[y*canvasSize+x] = float32(0.5*ga + 0.3*gb + 0.8*blob)
		}
	}
	return out
}

// sampleJob is one sample's draws from the serial pass: its class, its
// jitter, and the stream position its noise starts at.
type sampleJob struct {
	class, dx, dy int
	brightness    float32
	noise         rng.Snapshot
}

// split generates n samples with labels cycling through classes so every
// class is represented nearly equally (like CIFAR itself). It draws
// everything but the noise serially, in the order one sample at a time
// would, skipping each sample's noise draws; the samples then render in
// parallel, each from its own noise start.
func (g *synthGen) split(n int, r *rng.RNG) *Dataset {
	x := tensor.New(n, 3, synthSize, synthSize)
	labels := make([]int, n)
	perm := r.Perm(n)
	jobs := make([]sampleJob, n)
	for i := range jobs {
		class := perm[i] % g.cfg.Classes
		labels[i] = class
		// Per-sample jitter: translation up to ±3 px, brightness ±20%.
		dx := r.Intn(2*synthShift+1) - synthShift
		dy := r.Intn(2*synthShift+1) - synthShift
		brightness := 0.8 + 0.4*r.Float32()
		jobs[i] = sampleJob{class: class, dx: dx, dy: dy, brightness: brightness, noise: r.Snapshot()}
		r.SkipNorm(samplePixels)
	}
	xd := x.Data()
	parallel.For(n, n, 2, func(i0, i1 int) {
		var noise rng.RNG
		scratch := make([]float32, samplePixels)
		for i := i0; i < i1; i++ {
			noise.Restore(jobs[i].noise)
			g.render(xd[i*samplePixels:(i+1)*samplePixels], &jobs[i], &noise, scratch)
		}
	})
	return &Dataset{X: x, Labels: labels, Classes: g.cfg.Classes}
}

// render draws one sample into dst (3*32*32 floats): its class template
// under the job's translation and brightness, plus noise drawn from r.
// The sample's noise is drawn into scratch (samplePixels floats) in one
// call, in the order the pixel loop consumes it: pixel by pixel, the
// three channels of each in turn.
func (g *synthGen) render(dst []float32, j *sampleJob, r *rng.RNG, scratch []float32) {
	t := g.templates[j.class]
	canvas := g.canvases[j.class]
	brightness := j.brightness
	n := scratch[:samplePixels]
	r.NormFloat32s(n)
	k := 0
	for y := 0; y < synthSize; y++ {
		row := canvas[(y+j.dy+synthShift)*canvasSize+j.dx+synthShift:]
		for x := 0; x < synthSize; x++ {
			base := row[x]
			for ch := 0; ch < 3; ch++ {
				v := brightness*base*t.colors[ch] + g.cfg.Noise*n[k]
				dst[ch*synthSize*synthSize+y*synthSize+x] = v
				k++
			}
		}
	}
}
