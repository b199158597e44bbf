// Package models builds the neural networks the paper evaluates — a
// VGG-style stack and a ResNet-style residual network — plus a small MLP
// for quickstarts, and provides the Split operation that cuts a network
// into the platform-side first hidden layer (the paper's L1) and the
// server-side remainder (L2 … Lk).
//
// The trainable models here are deliberately scaled down ("lite") so the
// full training-based experiments run on one CPU core; package commmodel
// carries exact shape specs of full-size VGG-16 and ResNet-18 for the
// analytic, paper-scale communication numbers. Both families preserve
// the property the paper's Fig. 4 turns on: model parameters outweigh
// first-hidden-layer activations per minibatch.
package models

import (
	"fmt"

	"medsplit/internal/nn"
	"medsplit/internal/rng"
)

// Model is a built network along with the metadata the experiment
// harness needs.
type Model struct {
	Name string
	Net  *nn.Sequential

	// DefaultCut is the layer index at which the paper's split places
	// the platform/server boundary: layers [0, DefaultCut) form L1 and
	// stay on the platform.
	DefaultCut int

	// InputShape is the per-sample input shape (e.g. [3, 32, 32]).
	InputShape []int

	// Classes is the output width.
	Classes int
}

// ParamCount returns the total number of trainable scalars.
func (m *Model) ParamCount() int { return nn.ParamCount(m.Net.Params()) }

// inputGradSkipper is what nn.Dense and nn.Conv2D offer a network's
// first layer: a Backward that does not compute the input gradient.
type inputGradSkipper interface{ SkipInputGrad(skip bool) }

// Split cuts a Sequential at the given layer index: layers [0, cut) form
// the front (platform side), layers [cut, n) the back (server side). The
// halves share the original layer instances, so training the halves
// trains the original network.
//
// Split also tells a Dense or Conv2D input layer to stop computing its
// input gradient: below it there is only the platform's data, and on a
// wide input that product is most of the platform's backward pass. The
// choice lives in the layer, so it holds however the front is wrapped;
// front.Backward (and net.Backward) return nil from then on.
func Split(net *nn.Sequential, cut int) (front, back *nn.Sequential, err error) {
	layers := net.Layers()
	if cut <= 0 || cut >= len(layers) {
		return nil, nil, fmt.Errorf("models: cut %d outside (0, %d)", cut, len(layers))
	}
	if in, ok := layers[0].(inputGradSkipper); ok {
		in.SkipInputGrad(true)
	}
	front = nn.NewSequential(net.Name()+".front", layers[:cut]...)
	back = nn.NewSequential(net.Name()+".back", layers[cut:]...)
	return front, back, nil
}

// MLP builds a plain fully connected classifier with tanh activations:
// in → hidden... → classes. DefaultCut places the first Dense+Tanh pair
// (the first hidden layer) on the platform.
func MLP(in int, hidden []int, classes int, r *rng.RNG) *Model {
	if len(hidden) == 0 {
		panic("models: MLP needs at least one hidden layer")
	}
	var layers []nn.Layer
	prev := in
	for i, h := range hidden {
		layers = append(layers,
			nn.NewDense(fmt.Sprintf("fc%d", i+1), prev, h, r),
			nn.NewTanh(fmt.Sprintf("tanh%d", i+1)),
		)
		prev = h
	}
	layers = append(layers, nn.NewDense("head", prev, classes, r))
	return &Model{
		Name:       "mlp",
		Net:        nn.NewSequential("mlp", layers...),
		DefaultCut: 2, // first Dense + Tanh
		InputShape: []int{in},
		Classes:    classes,
	}
}

// VGGLite builds a scaled-down VGG-style network for 3×32×32 input:
// three conv/ReLU/maxpool stages doubling the channel width, then a
// two-layer dense head. width is the first stage's channel count
// (8 is the benchmark default; VGG-16 proper uses 64).
//
// DefaultCut = 3 keeps conv1+ReLU+pool — the first hidden layer in the
// paper's sense — on the platform.
func VGGLite(classes, width int, r *rng.RNG) *Model {
	if width <= 0 {
		panic("models: VGGLite width must be positive")
	}
	w1, w2, w3 := width, 2*width, 4*width
	layers := []nn.Layer{
		// Stage 1 (platform side under the default cut): 32×32 → 16×16.
		nn.NewConv2D("conv1", 3, w1, 3, 3, 1, 1, r),
		nn.NewReLU("relu1"),
		nn.NewMaxPool2D("pool1", 2, 2),
		// Stage 2: 16×16 → 8×8.
		nn.NewConv2D("conv2", w1, w2, 3, 3, 1, 1, r),
		nn.NewReLU("relu2"),
		nn.NewMaxPool2D("pool2", 2, 2),
		// Stage 3: 8×8 → 4×4.
		nn.NewConv2D("conv3", w2, w3, 3, 3, 1, 1, r),
		nn.NewReLU("relu3"),
		nn.NewMaxPool2D("pool3", 2, 2),
		// Head.
		nn.NewFlatten("flatten"),
		nn.NewDense("fc1", w3*4*4, 4*width*4, r),
		nn.NewReLU("relu4"),
		nn.NewDense("head", 4*width*4, classes, r),
	}
	return &Model{
		Name:       "vgg-lite",
		Net:        nn.NewSequential("vgg-lite", layers...),
		DefaultCut: 3,
		InputShape: []int{3, 32, 32},
		Classes:    classes,
	}
}

// ResNetLite builds a scaled-down ResNet-style network for 3×32×32
// input: a stem conv, three residual stages (the second and third
// downsampling by stride-2 projection shortcuts), global average pooling
// and a linear head. width is the stem's channel count.
//
// DefaultCut = 3 keeps the stem (conv+BN+ReLU) on the platform.
func ResNetLite(classes, width int, r *rng.RNG) *Model {
	if width <= 0 {
		panic("models: ResNetLite width must be positive")
	}
	w1, w2, w3 := width, 2*width, 4*width
	layers := []nn.Layer{
		// Stem (platform side under the default cut).
		nn.NewConv2D("stem.conv", 3, w1, 3, 3, 1, 1, r),
		nn.NewBatchNorm("stem.bn", w1),
		nn.NewReLU("stem.relu"),
		// Stage 1: identity residual block at 32×32.
		basicBlock("block1", w1, w1, 1, r),
		nn.NewReLU("block1.out"),
		// Stage 2: downsampling block to 16×16.
		basicBlock("block2", w1, w2, 2, r),
		nn.NewReLU("block2.out"),
		// Stage 3: downsampling block to 8×8.
		basicBlock("block3", w2, w3, 2, r),
		nn.NewReLU("block3.out"),
		// Head.
		nn.NewGlobalAvgPool("gap"),
		nn.NewDense("head", w3, classes, r),
	}
	return &Model{
		Name:       "resnet-lite",
		Net:        nn.NewSequential("resnet-lite", layers...),
		DefaultCut: 3,
		InputShape: []int{3, 32, 32},
		Classes:    classes,
	}
}

// basicBlock is the ResNet v1 basic block: conv-BN-ReLU-conv-BN with an
// identity shortcut, or a 1×1 strided projection when the shape changes.
func basicBlock(name string, inC, outC, stride int, r *rng.RNG) nn.Layer {
	body := nn.NewSequential(name+".body",
		nn.NewConv2D(name+".conv1", inC, outC, 3, 3, stride, 1, r),
		nn.NewBatchNorm(name+".bn1", outC),
		nn.NewReLU(name+".relu"),
		nn.NewConv2D(name+".conv2", outC, outC, 3, 3, 1, 1, r),
		nn.NewBatchNorm(name+".bn2", outC),
	)
	var skip nn.Layer
	if inC != outC || stride != 1 {
		skip = nn.NewSequential(name+".skip",
			nn.NewConv2D(name+".proj", inC, outC, 1, 1, stride, 0, r),
			nn.NewBatchNorm(name+".projbn", outC),
		)
	}
	return nn.NewResidual(name, body, skip)
}
