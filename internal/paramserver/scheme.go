package paramserver

import (
	"medsplit/internal/nn"
	"medsplit/internal/tensor"
	"medsplit/internal/wire"
)

// Scheme is what distinguishes one parameter-exchange algorithm from
// another once server, handshake, framing and accounting are shared:
// what a client ships each round and how the server folds the pushes
// into the global model. The package's two instances are SyncSGD and
// FedAvg; a config selects one by pointer.
type Scheme struct {
	// name is the handshake's algo field, so a client of one scheme
	// cannot train against a server of another.
	name string
	// push is the type of the client → server message.
	push wire.MsgType
	// ship picks the tensor of a parameter that crosses the wire in a
	// push, and that the fold writes on the global model.
	ship func(*nn.Param) *tensor.Tensor
	// serverOpt / clientOpt say which side steps an optimizer and must
	// therefore be configured with one.
	serverOpt, clientOpt bool
	// local is one round of client work on the freshly installed global
	// model. It returns the round's mean training loss and the weight
	// the server gives this client's push.
	local func(c *Client, params []*nn.Param) (loss float64, weight int)
	// fold installs the clients' pushes (in client-id order, each with
	// its weight) into dst, the shipped tensors of the global model.
	fold func(s *Server, dst []*tensor.Tensor, pushes [][]*tensor.Tensor, weights []float64) error
}

// SyncSGD is the paper's evaluation baseline, Large-Scale Synchronous
// SGD (Chen et al., arXiv:1604.00981): every client computes the
// gradient of one local minibatch and the server applies the
// batch-size-weighted average gradient.
var SyncSGD = &Scheme{
	name:      "syncsgd",
	push:      wire.MsgGradPush,
	ship:      func(p *nn.Param) *tensor.Tensor { return p.G },
	serverOpt: true,
	local:     (*Client).backward,
	fold: func(s *Server, grads []*tensor.Tensor, pushes [][]*tensor.Tensor, weights []float64) error {
		if s.sums == nil {
			s.sums = make([]*tensor.Tensor, len(grads))
			for i, g := range grads {
				s.sums[i] = tensor.New(g.Shape()...)
			}
		}
		for i, sum := range s.sums {
			sum.Zero()
			grads[i].Zero()
		}
		// Sum in float32 with the integer batch size as the factor, then
		// scale once by 1/total: the operation order is part of the
		// baseline's bit-for-bit contract.
		var total float64
		for k, gs := range pushes {
			for i, sum := range s.sums {
				sum.AxpyInPlace(float32(weights[k]), gs[i])
			}
			total += weights[k]
		}
		inv := float32(1 / total)
		for i, g := range grads {
			g.AxpyInPlace(inv, s.sums[i])
		}
		params := s.cfg.Model.Params()
		if s.cfg.ClipGrads > 0 {
			nn.ClipGrads(params, s.cfg.ClipGrads)
		}
		s.cfg.Opt.Step(params)
		return nil
	},
}

// FedAvg is Federated Averaging (McMahan et al., AISTATS 2017), the
// approach the paper cites as the de facto standard: every client runs
// LocalSteps optimizer steps on its own data and the server installs
// the shard-size-weighted average of the clients' weights. The
// local-steps knob trades communication rounds for local computation.
var FedAvg = &Scheme{
	name:      "fedavg",
	push:      wire.MsgModelPush,
	ship:      func(p *nn.Param) *tensor.Tensor { return p.W },
	clientOpt: true,
	local: func(c *Client, params []*nn.Param) (float64, int) {
		var lossSum float64
		for step := 0; step < c.cfg.LocalSteps; step++ {
			loss, _ := c.backward(params)
			c.cfg.Opt.Step(params)
			lossSum += loss
		}
		return lossSum / float64(c.cfg.LocalSteps), c.cfg.Shard.Len()
	},
	fold: func(_ *Server, weights []*tensor.Tensor, pushes [][]*tensor.Tensor, shardSizes []float64) error {
		return nn.AverageInto(weights, pushes, shardSizes)
	},
}
