package nn

import "fmt"

// Replica returns a copy of a frozen layer tree that can run eval-mode
// Forward on another goroutine at the same time as l. The copy shares
// everything a forward only reads: the parameters (weights and, unused,
// gradients), BatchNorm's running statistics, a Dense layer's f16 pack
// and a quantized view's int8 weights. It owns fresh forward scratch,
// which is all an eval forward writes. The replica computes exactly what
// l computes, bit for bit.
//
// A replica is for inference only: l must stay frozen while it is in
// use, and the replica must never be trained (a Dropout replica has no
// random source). A layer from outside this package takes part by
// implementing interface{ Replica() Layer }; any other layer is an
// error.
func Replica(l Layer) (Layer, error) {
	switch v := l.(type) {
	case *Sequential:
		layers, err := replicas(v.layers)
		if err != nil {
			return nil, err
		}
		return NewSequential(v.name, layers...), nil
	case *QuantizedInference:
		layers, err := replicas(v.layers)
		if err != nil {
			return nil, err
		}
		return &QuantizedInference{name: v.name, layers: layers}, nil
	case *Residual:
		body, err := Replica(v.body)
		if err != nil {
			return nil, err
		}
		var skip Layer
		if v.skip != nil {
			if skip, err = Replica(v.skip); err != nil {
				return nil, err
			}
		}
		return NewResidual(v.name, body, skip), nil
	case *Dense:
		return &Dense{name: v.name, w: v.w, b: v.b, wf16: v.wf16}, nil
	case *qDense:
		return &qDense{name: v.name, in: v.in, out: v.out, qw: v.qw, wsum: v.wsum, sw: v.sw, bias: v.bias}, nil
	case *Conv2D:
		return &Conv2D{name: v.name, inC: v.inC, outC: v.outC, kh: v.kh, kw: v.kw,
			stride: v.stride, pad: v.pad, w: v.w, b: v.b}, nil
	case *BatchNorm:
		return &BatchNorm{name: v.name, c: v.c, eps: v.eps, momentum: v.momentum,
			gamma: v.gamma, beta: v.beta, runningMean: v.runningMean, runningVar: v.runningVar}, nil
	case *ReLU:
		return NewReLU(v.name), nil
	case *Tanh:
		return NewTanh(v.name), nil
	case *Flatten:
		return NewFlatten(v.name), nil
	case *Dropout:
		return &Dropout{name: v.name, rate: v.rate}, nil
	case *MaxPool2D:
		return NewMaxPool2D(v.name, v.k, v.stride), nil
	case *GlobalAvgPool:
		return NewGlobalAvgPool(v.name), nil
	case interface{ Replica() Layer }:
		return v.Replica(), nil
	default:
		return nil, fmt.Errorf("nn: layer %q (%T) has no inference replica", l.Name(), l)
	}
}

func replicas(layers []Layer) ([]Layer, error) {
	out := make([]Layer, len(layers))
	for i, l := range layers {
		r, err := Replica(l)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
