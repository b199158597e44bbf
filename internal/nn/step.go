package nn

import "medsplit/internal/tensor"

// plainSGD returns opt as the SGD whose step BackwardStep fuses into
// dense layers — plain, without weight decay — or nil.
func plainSGD(opt Optimizer) *SGD {
	if s, ok := opt.(*SGD); ok && s.WeightDecay == 0 {
		return s
	}
	return nil
}

// GradParams returns the parameters of net whose gradient accumulators
// BackwardStep writes under opt. Callers zero them (ZeroGrads) before
// BackwardStep, as early as they like. Under plain SGD that leaves out
// every dense layer directly in net, whose gradients BackwardStep
// leaves untouched (or, past the fused path's batch limit, zeroes
// itself); otherwise it is every parameter. The list is cached like
// Params and must be treated as read-only.
func GradParams(net *Sequential, opt Optimizer) []*Param {
	if plainSGD(opt) == nil {
		return net.Params()
	}
	if net.gradParams == nil {
		net.gradParams = []*Param{}
		for _, l := range net.layers {
			if _, ok := l.(*Dense); !ok {
				net.gradParams = append(net.gradParams, l.Params()...)
			}
		}
	}
	return net.gradParams
}

// BackwardStep runs net's backward pass on grad, clamps the gradients
// into [-clip, clip] when clip > 0, and applies opt. It returns the
// gradient with respect to net's input (nil when the first layer skips
// it). The caller must have zeroed GradParams(net, opt).
//
// Under plain SGD (read at call time, so ApplySchedule's learning rate
// applies) each dense layer directly in net updates its weights in one
// pass from its cached input and incoming gradient after computing its
// dx from the old weights; its gradient accumulators are never zeroed,
// written or read. Only a batch over fusedStepMaxRows rows, where the
// GEMM is faster, takes the gradient route on the layer's own G, which
// it zeroes first. Either way the result is bit-identical to Backward,
// ClipGrads and SGD.Step. Every other layer, and every other
// optimizer, takes that sequence.
func BackwardStep(net *Sequential, grad *tensor.Tensor, opt Optimizer, clip float32) *tensor.Tensor {
	sgd := plainSGD(opt)
	for i := len(net.layers) - 1; i >= 0; i-- {
		if d, ok := net.layers[i].(*Dense); ok && sgd != nil {
			grad = d.sgdStep(grad, sgd.LR, clip)
		} else {
			grad = net.layers[i].Backward(grad)
		}
	}
	rest := GradParams(net, opt)
	if clip > 0 {
		ClipGrads(rest, clip)
	}
	opt.Step(rest)
	return grad
}
