package nn

import (
	"fmt"
	"math"

	"medsplit/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients. Step
// does not clear gradients; callers ZeroGrads before the next backward
// pass so that gradient accumulation across micro-batches stays possible.
type Optimizer interface {
	Step(params []*Param)
	Name() string
}

// SGD is plain stochastic gradient descent with optional L2 weight decay.
type SGD struct {
	LR          float32
	WeightDecay float32
}

var _ Optimizer = (*SGD)(nil)

// Name returns "sgd".
func (s *SGD) Name() string { return "sgd" }

// Step applies w ← w − lr·(g + wd·w). Without weight decay that is the
// vector kernel's w += (−lr)·g, which rounds exactly as w −= lr·g does
// (negating a factor negates the product exactly, fused or not).
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if s.WeightDecay == 0 {
			p.W.AxpyInPlace(-s.LR, p.G)
			continue
		}
		w, g := p.W.Data(), p.G.Data()
		for i := range w {
			grad := g[i] + s.WeightDecay*w[i]
			w[i] -= s.LR * grad
		}
	}
}

// Momentum is SGD with classical momentum (Polyak heavy ball).
type Momentum struct {
	LR          float32
	Mu          float32 // momentum coefficient, typically 0.9
	WeightDecay float32

	velocity map[*Param]*tensor.Tensor
}

var _ Optimizer = (*Momentum)(nil)

// Name returns "momentum".
func (m *Momentum) Name() string { return "momentum" }

// Step applies v ← mu·v − lr·g; w ← w + v.
func (m *Momentum) Step(params []*Param) {
	if m.velocity == nil {
		m.velocity = make(map[*Param]*tensor.Tensor, len(params))
	}
	for _, p := range params {
		v, ok := m.velocity[p]
		if !ok {
			v = tensor.New(p.W.Shape()...)
			m.velocity[p] = v
		}
		w, g, vd := p.W.Data(), p.G.Data(), v.Data()
		for i := range w {
			grad := g[i]
			if m.WeightDecay != 0 {
				grad += m.WeightDecay * w[i]
			}
			vd[i] = m.Mu*vd[i] - m.LR*grad
			w[i] += vd[i]
		}
	}
}

// Adam is the Kingma & Ba adaptive-moment optimizer.
type Adam struct {
	LR    float32
	Beta1 float32 // default 0.9 when zero
	Beta2 float32 // default 0.999 when zero
	Eps   float32 // default 1e-8 when zero

	t int
	m map[*Param]*tensor.Tensor
	v map[*Param]*tensor.Tensor
}

var _ Optimizer = (*Adam)(nil)

// Name returns "adam".
func (a *Adam) Name() string { return "adam" }

// Step applies the Adam update with bias correction.
func (a *Adam) Step(params []*Param) {
	if a.Beta1 == 0 {
		a.Beta1 = 0.9
	}
	if a.Beta2 == 0 {
		a.Beta2 = 0.999
	}
	if a.Eps == 0 {
		a.Eps = 1e-8
	}
	if a.m == nil {
		a.m = make(map[*Param]*tensor.Tensor, len(params))
		a.v = make(map[*Param]*tensor.Tensor, len(params))
	}
	a.t++
	c1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	c2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for _, p := range params {
		mt, ok := a.m[p]
		if !ok {
			mt = tensor.New(p.W.Shape()...)
			a.m[p] = mt
			a.v[p] = tensor.New(p.W.Shape()...)
		}
		vt := a.v[p]
		w, g, md, vd := p.W.Data(), p.G.Data(), mt.Data(), vt.Data()
		for i := range w {
			md[i] = a.Beta1*md[i] + (1-a.Beta1)*g[i]
			vd[i] = a.Beta2*vd[i] + (1-a.Beta2)*g[i]*g[i]
			mHat := md[i] / c1
			vHat := vd[i] / c2
			w[i] -= a.LR * mHat / (float32(math.Sqrt(float64(vHat))) + a.Eps)
		}
	}
}

// OptimizerState is an optimizer's internal state, captured for
// checkpointing: scalar counters (e.g. Adam's step count) as raw
// uint64 values and per-parameter state tensors in a deterministic
// order. The tensors are deep copies — mutating the live optimizer
// after capture does not corrupt the snapshot.
type OptimizerState struct {
	Scalars []uint64
	Tensors []*tensor.Tensor
}

// StatefulOptimizer is implemented by optimizers whose updates depend
// on accumulated internal state (momentum buffers, moment estimates).
// CaptureState/RestoreState order state tensors by the params list, so
// two structurally identical models exchange state losslessly. Plain
// SGD is stateless and does not implement the interface.
type StatefulOptimizer interface {
	Optimizer
	CaptureState(params []*Param) OptimizerState
	RestoreState(params []*Param, st OptimizerState) error
}

// cloneTensor deep-copies t (zeros when t is nil, shaped like ref).
func cloneTensor(t *tensor.Tensor, ref *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(ref.Shape()...)
	if t != nil {
		out.CopyFrom(t)
	}
	return out
}

var _ StatefulOptimizer = (*Momentum)(nil)

// CaptureState snapshots the velocity buffers, one per param in params
// order (zeros for params never stepped).
func (m *Momentum) CaptureState(params []*Param) OptimizerState {
	st := OptimizerState{Tensors: make([]*tensor.Tensor, len(params))}
	for i, p := range params {
		st.Tensors[i] = cloneTensor(m.velocity[p], p.W)
	}
	return st
}

// RestoreState overwrites the velocity buffers from a snapshot.
func (m *Momentum) RestoreState(params []*Param, st OptimizerState) error {
	if len(st.Scalars) != 0 || len(st.Tensors) != len(params) {
		return fmt.Errorf("nn: momentum state has %d scalars / %d tensors, want 0 / %d",
			len(st.Scalars), len(st.Tensors), len(params))
	}
	if m.velocity == nil {
		m.velocity = make(map[*Param]*tensor.Tensor, len(params))
	}
	for i, p := range params {
		if !tensor.SameShape(st.Tensors[i], p.W) {
			return fmt.Errorf("nn: momentum state tensor %d shape %v, want %v", i, st.Tensors[i].Shape(), p.W.Shape())
		}
		m.velocity[p] = cloneTensor(st.Tensors[i], p.W)
	}
	return nil
}

var _ StatefulOptimizer = (*Adam)(nil)

// CaptureState snapshots the step count and first/second moment
// estimates ([m, v] per param, in params order).
func (a *Adam) CaptureState(params []*Param) OptimizerState {
	st := OptimizerState{
		Scalars: []uint64{uint64(a.t)},
		Tensors: make([]*tensor.Tensor, 0, 2*len(params)),
	}
	for _, p := range params {
		st.Tensors = append(st.Tensors, cloneTensor(a.m[p], p.W), cloneTensor(a.v[p], p.W))
	}
	return st
}

// RestoreState overwrites the step count and moment estimates.
func (a *Adam) RestoreState(params []*Param, st OptimizerState) error {
	if len(st.Scalars) != 1 || len(st.Tensors) != 2*len(params) {
		return fmt.Errorf("nn: adam state has %d scalars / %d tensors, want 1 / %d",
			len(st.Scalars), len(st.Tensors), 2*len(params))
	}
	if a.m == nil {
		a.m = make(map[*Param]*tensor.Tensor, len(params))
		a.v = make(map[*Param]*tensor.Tensor, len(params))
	}
	a.t = int(st.Scalars[0])
	for i, p := range params {
		mt, vt := st.Tensors[2*i], st.Tensors[2*i+1]
		if !tensor.SameShape(mt, p.W) || !tensor.SameShape(vt, p.W) {
			return fmt.Errorf("nn: adam state tensors for param %d mismatch shape %v", i, p.W.Shape())
		}
		a.m[p] = cloneTensor(mt, p.W)
		a.v[p] = cloneTensor(vt, p.W)
	}
	return nil
}

// CaptureOptimizerState captures opt's state, or an empty state for
// stateless optimizers (SGD).
func CaptureOptimizerState(opt Optimizer, params []*Param) OptimizerState {
	if so, ok := opt.(StatefulOptimizer); ok {
		return so.CaptureState(params)
	}
	return OptimizerState{}
}

// RestoreOptimizerState restores a state captured by
// CaptureOptimizerState into opt. A non-empty state for a stateless
// optimizer is a config mismatch and fails.
func RestoreOptimizerState(opt Optimizer, params []*Param, st OptimizerState) error {
	if so, ok := opt.(StatefulOptimizer); ok {
		return so.RestoreState(params, st)
	}
	if len(st.Scalars) != 0 || len(st.Tensors) != 0 {
		return fmt.Errorf("nn: optimizer %q is stateless but checkpoint carries %d scalars / %d tensors",
			opt.Name(), len(st.Scalars), len(st.Tensors))
	}
	return nil
}

// ClipGrads clamps every gradient entry into [-limit, limit] at vector
// kernel speed (kernels.Clamp under tensor.ClipInPlace; NaN entries stay
// NaN). The training loops call it before the optimizer step to keep
// early rounds stable at the small batch sizes the simulations use.
func ClipGrads(params []*Param, limit float32) {
	if limit <= 0 {
		panic(fmt.Sprintf("nn: ClipGrads limit %v must be positive", limit))
	}
	for _, p := range params {
		p.G.ClipInPlace(limit)
	}
}
