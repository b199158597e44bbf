// Package nn implements the neural-network layers, loss functions and
// optimizers that medsplit's VGG-style and ResNet-style models are built
// from.
//
// Layers follow an explicit forward/backward contract: Forward caches
// whatever it needs, Backward consumes that cache, accumulates parameter
// gradients, and returns the gradient with respect to the layer input.
// A layer instance therefore serves one training goroutine at a time.
//
// The split-learning engine in internal/core cuts a Sequential into a
// platform-side front (the paper's L1) and a server-side back
// (L2 … Lk); both halves are ordinary Sequential values from this
// package.
package nn

import (
	"fmt"

	"medsplit/internal/tensor"
)

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the layer output for x. When train is true the
	// layer may cache activations for Backward and use training-mode
	// behaviour (dropout masks, batch statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor

	// Backward consumes the gradient of the loss with respect to the
	// layer's output, accumulates parameter gradients, and returns the
	// gradient with respect to the layer's input — nil from a layer
	// told to skip it (Dense.SkipInputGrad, Conv2D.SkipInputGrad). It
	// must follow a train-mode Forward.
	Backward(grad *tensor.Tensor) *tensor.Tensor

	// Params returns the layer's trainable parameters, or nil.
	Params() []*Param

	// Name identifies the layer in diagnostics.
	Name() string
}

// Param is one trainable tensor together with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

// NewParam allocates a parameter and a matching zero gradient.
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape()...)}
}

// ZeroGrads clears the gradient accumulators of all params. Before
// BackwardStep, pass GradParams: the accumulators BackwardStep leaves
// untouched need no clearing.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.G.Zero()
	}
}

// ParamCount returns the total number of scalar weights across params.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.W.Size()
	}
	return n
}

// CopyParams copies weight values from src into dst. The two lists must
// be structurally identical (same order, names and shapes) — they come
// from two instances of the same architecture.
func CopyParams(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: CopyParams length mismatch %d vs %d", len(dst), len(src))
	}
	for i := range dst {
		if !tensor.SameShape(dst[i].W, src[i].W) {
			return fmt.Errorf("nn: CopyParams shape mismatch at %q", dst[i].Name)
		}
		dst[i].W.CopyFrom(src[i].W)
	}
	return nil
}

// AverageInto overwrites dst with the weighted average of the source
// tensor lists: dst[i] = Σ_k (weights[k]/Σweights) · srcs[k][i]. It is
// the one aggregation kernel in the repo — FedAvg's weight fold, both
// baselines' normalization-state fold and the split engine's L1 sync
// all call it — so every aggregation site applies the same arithmetic
// (same operation order, same float32 rounding).
//
// Every source list must have one tensor per dst entry with a matching
// shape; weights must be non-negative with a positive sum.
func AverageInto(dst []*tensor.Tensor, srcs [][]*tensor.Tensor, weights []float64) error {
	if len(srcs) == 0 || len(weights) != len(srcs) {
		return fmt.Errorf("nn: AverageInto %d sources, %d weights", len(srcs), len(weights))
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			return fmt.Errorf("nn: negative aggregation weight %v", w)
		}
		total += w
	}
	if total == 0 {
		return fmt.Errorf("nn: aggregation weights sum to zero")
	}
	for s, src := range srcs {
		if len(src) != len(dst) {
			return fmt.Errorf("nn: source %d has %d tensors, want %d", s, len(src), len(dst))
		}
	}
	for i, d := range dst {
		acc := d.Data()
		for j := range acc {
			acc[j] = 0
		}
		for s, src := range srcs {
			if !tensor.SameShape(d, src[i]) {
				return fmt.Errorf("nn: tensor %d shape mismatch at source %d: %v, want %v",
					i, s, src[i].Shape(), d.Shape())
			}
			scale := float32(weights[s] / total)
			sd := src[i].Data()
			for j := range acc {
				acc[j] += scale * sd[j]
			}
		}
	}
	return nil
}

// Stateful is implemented by layers that carry non-trainable state
// which must travel with the weights whenever a model is replicated or
// aggregated — BatchNorm's running statistics are the canonical case.
// Parameter-exchange schemes (sync SGD, FedAvg) that ignore such state
// evaluate garbage models: the aggregation server's normalization
// statistics never move from their initialization.
type Stateful interface {
	State() []*tensor.Tensor
}

// CollectState gathers the stateful tensors of a layer tree in
// deterministic (depth-first) order. Two instances of the same
// architecture yield structurally identical lists.
func CollectState(l Layer) []*tensor.Tensor {
	switch v := l.(type) {
	case *Sequential:
		var out []*tensor.Tensor
		for _, child := range v.layers {
			out = append(out, CollectState(child)...)
		}
		return out
	case *Residual:
		out := CollectState(v.body)
		if v.skip != nil {
			out = append(out, CollectState(v.skip)...)
		}
		return out
	case Stateful:
		return v.State()
	default:
		return nil
	}
}

// ReplaySafe reports whether a layer tree's training forward pass can
// be re-run on the same input with bit-identical output and no side
// effects. Stateful layers fail (BatchNorm's running statistics would
// advance twice) and so do stochastic ones (a Dropout replay consumes
// fresh randomness and draws a different mask). Schedulers that
// rebuild a layer tree's backward cache by replaying the forward — the
// relaxed-consistency server does this to interleave platform
// exchanges — must refuse trees where this returns false.
func ReplaySafe(l Layer) bool {
	switch v := l.(type) {
	case *Sequential:
		for _, child := range v.layers {
			if !ReplaySafe(child) {
				return false
			}
		}
		return true
	case *Residual:
		if !ReplaySafe(v.body) {
			return false
		}
		return v.skip == nil || ReplaySafe(v.skip)
	case *Dropout:
		return false
	case Stateful:
		return false
	default:
		return true
	}
}

// EncodeModelInto appends weights followed by stateful tensors — the
// full replication payload of the parameter-exchange schemes — to a
// caller-owned buffer (typically drawn from a wire.BufferPool), so
// steady-state broadcast loops encode without allocating.
func EncodeModelInto(buf []byte, params []*Param, state []*tensor.Tensor) []byte {
	for _, p := range params {
		buf = p.W.AppendTo(buf)
	}
	for _, t := range state {
		buf = t.AppendTo(buf)
	}
	return buf
}

// DecodeModelScratch decodes a buffer produced by EncodeModelInto into
// the given weights and state tensors through caller-owned scratch:
// each wire tensor decodes into the corresponding scratch entry
// (allocated on first use, reused afterwards) before its shape is
// validated and its data copied into the model, so steady-state rounds
// of a parameter-exchange loop decode without allocating. It returns
// the (possibly grown) scratch slice; pass nil on the first call.
func DecodeModelScratch(scratch []*tensor.Tensor, params []*Param, state []*tensor.Tensor, buf []byte) ([]*tensor.Tensor, error) {
	if need := len(params) + len(state); len(scratch) != need {
		scratch = make([]*tensor.Tensor, need)
	}
	for i, p := range params {
		t, rest, err := tensor.DecodeInto(scratch[i], buf)
		if err != nil {
			return scratch, fmt.Errorf("nn: decoding %q: %w", p.Name, err)
		}
		scratch[i] = t
		if !tensor.SameShape(p.W, t) {
			return scratch, fmt.Errorf("nn: decoded shape %v for %q, want %v", t.Shape(), p.Name, p.W.Shape())
		}
		p.W.CopyFrom(t)
		buf = rest
	}
	for i, dst := range state {
		t, rest, err := tensor.DecodeInto(scratch[len(params)+i], buf)
		if err != nil {
			return scratch, fmt.Errorf("nn: decoding state %d: %w", i, err)
		}
		scratch[len(params)+i] = t
		if !tensor.SameShape(dst, t) {
			return scratch, fmt.Errorf("nn: state %d shape %v, want %v", i, t.Shape(), dst.Shape())
		}
		dst.CopyFrom(t)
		buf = rest
	}
	if len(buf) != 0 {
		return scratch, fmt.Errorf("nn: %d trailing bytes after decoding model", len(buf))
	}
	return scratch, nil
}

// Sequential chains layers front to back.
type Sequential struct {
	name   string
	layers []Layer

	// params caches the concatenated parameter list: the layer set is
	// fixed at construction, and the training loop asks for Params
	// several times per round (zero, clip, step, mirror), which made the
	// repeated concatenation a per-round allocation hot spot.
	params []*Param
	// gradParams caches GradParams' list under plain SGD: the
	// parameters of every layer but the dense ones.
	gradParams []*Param
}

var _ Layer = (*Sequential)(nil)

// NewSequential builds a named chain of layers.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, layers: layers}
}

// Name returns the chain's name.
func (s *Sequential) Name() string { return s.name }

// Layers returns the underlying layer list (not a copy; used by model
// splitting).
func (s *Sequential) Layers() []Layer { return s.layers }

// Forward runs x through every layer in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates grad through every layer in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad = s.layers[i].Backward(grad)
	}
	return grad
}

// Params returns the concatenated parameters of all layers, in layer
// order. The list is computed once and cached — callers must treat it
// as read-only and must not mutate the chain's layer set afterwards
// (nothing in this repo does; models are assembled before training).
func (s *Sequential) Params() []*Param {
	if s.params == nil {
		out := []*Param{}
		for _, l := range s.layers {
			out = append(out, l.Params()...)
		}
		s.params = out
	}
	return s.params
}
