package main

import (
	"fmt"
	"time"

	"medsplit/internal/core"
	"medsplit/internal/nn"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// The wrappers below are the only instrumentation the benchmark has:
// pass-through values at the program's public seams. Each forwards to
// the wrapped value unchanged and records a span on its party. They
// never touch what is computed; the digest check in train.go holds them
// to that.

// Span names. The per-layer metrics are keyed on these.
const (
	spanSend     = "transport.send"
	spanRecv     = "transport.recv"
	spanEncode   = "wire.encode"
	spanDecode   = "wire.decode"
	spanCompute  = "core.compute"
	spanFrontFwd = "nn.front_forward"
	spanFrontBwd = "nn.front_backward"
	spanBackFwd  = "nn.back_forward"
	spanBackBwd  = "nn.back_backward"
	spanLoss     = "nn.loss"
	spanOptStep  = "nn.opt_step"
	spanReplSend = "core.repl_send"
	// spanReplRecord is derived, not recorded: the gap on the server
	// goroutine between the cut-gradient encode and the follower-stream
	// send, where the replicator snapshots the state, builds the step
	// record and appends it to the WAL.
	spanReplRecord = "core.repl_record"
)

// tapConn wraps one end of a connection. With a party it records a span
// per Send and Recv; the hooks run after a successful call either way,
// which is how the untraced run takes its round stamps without spans.
type tapConn struct {
	inner     transport.Conn
	p         *party
	sendName  string
	afterSend func(m *wire.Message)
	afterRecv func(m *wire.Message)
}

var _ transport.Conn = (*tapConn)(nil)

func (c *tapConn) Send(m *wire.Message) error {
	if c.p == nil {
		err := c.inner.Send(m)
		if err == nil && c.afterSend != nil {
			c.afterSend(m)
		}
		return err
	}
	// Read the message before Send: ownership of the payload passes to
	// the receiver once Send returns.
	typ, round, size := m.Type, m.Round, m.WireSize()
	name := c.sendName
	if name == "" {
		name = spanSend
	}
	i := c.p.begin(name)
	err := c.inner.Send(m)
	s := c.p.end(i)
	s.tag, s.id, s.aux = uint8(typ), int64(round), int64(size)
	if err == nil && c.afterSend != nil {
		c.afterSend(m)
	}
	return err
}

func (c *tapConn) Recv() (*wire.Message, error) {
	if c.p == nil {
		m, err := c.inner.Recv()
		if err == nil && c.afterRecv != nil {
			c.afterRecv(m)
		}
		return m, err
	}
	i := c.p.begin(spanRecv)
	m, err := c.inner.Recv()
	s := c.p.end(i)
	if err == nil {
		s.tag, s.id, s.aux = uint8(m.Type), int64(m.Round), int64(m.WireSize())
		if c.afterRecv != nil {
			c.afterRecv(m)
		}
	}
	return m, err
}

func (c *tapConn) Close() error { return c.inner.Close() }

// tracedCodec times the activation-path codec and counts raw against
// encoded bytes. traceCodec returns the reusable variant when the inner
// codec has the buffer-reusing fast path, so wrapping never pushes the
// protocol loops onto the allocating fallback.
type tracedCodec struct {
	inner wire.Codec
	p     *party
}

type tracedReusableCodec struct {
	tracedCodec
	fast wire.ReusableCodec
}

var (
	_ wire.Codec         = (*tracedCodec)(nil)
	_ wire.ReusableCodec = (*tracedReusableCodec)(nil)
)

func traceCodec(c wire.Codec, p *party) wire.Codec {
	base := tracedCodec{inner: c, p: p}
	if rc, ok := c.(wire.ReusableCodec); ok {
		return &tracedReusableCodec{tracedCodec: base, fast: rc}
	}
	return &base
}

func rawBytes(ts []*tensor.Tensor) int64 {
	var n int64
	for _, t := range ts {
		n += 4 * int64(t.Size())
	}
	return n
}

func (c *tracedCodec) Name() string { return c.inner.Name() }

func (c *tracedCodec) EncodeTensors(ts ...*tensor.Tensor) []byte {
	i := c.p.begin(spanEncode)
	out := c.inner.EncodeTensors(ts...)
	s := c.p.end(i)
	s.aux, s.aux2 = rawBytes(ts), int64(len(out))
	return out
}

func (c *tracedCodec) DecodeTensors(buf []byte) ([]*tensor.Tensor, error) {
	i := c.p.begin(spanDecode)
	ts, err := c.inner.DecodeTensors(buf)
	s := c.p.end(i)
	s.aux, s.aux2 = rawBytes(ts), int64(len(buf))
	return ts, err
}

func (c *tracedReusableCodec) EncodeTensorsInto(buf []byte, ts ...*tensor.Tensor) []byte {
	before := len(buf)
	i := c.p.begin(spanEncode)
	out := c.fast.EncodeTensorsInto(buf, ts...)
	s := c.p.end(i)
	s.aux, s.aux2 = rawBytes(ts), int64(len(out)-before)
	return out
}

func (c *tracedReusableCodec) DecodeTensorsInto(dst []*tensor.Tensor, buf []byte) ([]*tensor.Tensor, error) {
	i := c.p.begin(spanDecode)
	ts, err := c.fast.DecodeTensorsInto(dst, buf)
	s := c.p.end(i)
	s.aux, s.aux2 = rawBytes(ts), int64(len(buf))
	return ts, err
}

// gemmShape is one matrix product a layer performs: [M,K]×[K,N].
type gemmShape struct{ M, K, N int }

func (g gemmShape) flops() int64 { return 2 * int64(g.M) * int64(g.K) * int64(g.N) }

// convShape is one convolution input a layer unfolds with im2col.
type convShape struct{ N, C, H, W, Kh, Kw int }

// tracedLayer times one layer. fwd and bwd name the spans; for a child
// layer both carry the layer's own name with a direction suffix. Child
// wrappers (shapes set) also note the matrix product behind the layer
// once and count their calls, from which the benchmark computes — not
// measures — the floating-point operations per round.
type tracedLayer struct {
	inner    nn.Layer
	p        *party
	fwd, bwd string
	shapes   bool
	gemm     gemmShape
	conv     convShape
	fwdCalls int64
	bwdCalls int64
}

var _ nn.Layer = (*tracedLayer)(nil)

func (l *tracedLayer) Name() string        { return l.inner.Name() }
func (l *tracedLayer) Params() []*nn.Param { return l.inner.Params() }

func (l *tracedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	i := l.p.begin(l.fwd)
	y := l.inner.Forward(x, train)
	l.p.end(i)
	if l.shapes {
		if l.fwdCalls == 0 {
			l.gemm, l.conv = layerGemm(l.inner, x, y)
		}
		l.fwdCalls++
	}
	return y
}

func (l *tracedLayer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	i := l.p.begin(l.bwd)
	dx := l.inner.Backward(grad)
	l.p.end(i)
	l.bwdCalls++
	return dx
}

// flops is the layer's operation count so far: one product per forward,
// two (weight gradient and input gradient) per backward.
func (l *tracedLayer) flops() int64 {
	return l.gemm.flops() * (l.fwdCalls + 2*l.bwdCalls)
}

// largestOf picks the largest matrix product and the largest
// convolution input among the child wrappers: the shapes the tensor
// probes run at.
func largestOf(wraps []*tracedLayer) (g gemmShape, c convShape) {
	for _, l := range wraps {
		if l.gemm.flops() > g.flops() {
			g = l.gemm
		}
		if l.conv.N*l.conv.C*l.conv.H*l.conv.W > c.N*c.C*c.H*c.W {
			c = l.conv
		}
	}
	return g, c
}

// layerGemm derives the matrix product behind a Dense or Conv2D forward
// from its weight and output shapes. Both keep a rank-2 weight: Dense
// [in,out], Conv2D [outC, inC·kh·kw]; a rank-4 input tells them apart.
func layerGemm(l nn.Layer, x, y *tensor.Tensor) (gemmShape, convShape) {
	ps := l.Params()
	if len(ps) == 0 || ps[0].W.Rank() != 2 {
		return gemmShape{}, convShape{}
	}
	w := ps[0].W
	if x.Rank() == 4 {
		n := w.Dim(0)
		g := gemmShape{M: y.Size() / n, K: w.Dim(1), N: n}
		k := w.Dim(1) / x.Dim(1)
		side := 1
		for side*side < k {
			side++
		}
		return g, convShape{N: x.Dim(0), C: x.Dim(1), H: x.Dim(2), W: x.Dim(3), Kh: side, Kw: side}
	}
	return gemmShape{M: y.Size() / w.Dim(1), K: w.Dim(0), N: w.Dim(1)}, convShape{}
}

// traceHalf rebuilds one model half with every child layer wrapped and
// the whole half wrapped once more, so the trace has the half's total
// and its children. Only the parameter-free or Dense/Conv2D layers of
// the MLP and VGG-lite models are accepted: wrapping hides a layer's
// concrete type from nn.CollectState and nn.ReplaySafe, which is
// harmless exactly when the layer is stateless and deterministic.
func traceHalf(seq *nn.Sequential, p *party, fwd, bwd string) (*nn.Sequential, []*tracedLayer, error) {
	children := make([]nn.Layer, len(seq.Layers()))
	wrapped := make([]*tracedLayer, len(children))
	for i, l := range seq.Layers() {
		switch l.(type) {
		case *nn.Dense, *nn.Conv2D, *nn.ReLU, *nn.Tanh, *nn.MaxPool2D, *nn.Flatten:
		default:
			return nil, nil, fmt.Errorf("bench: layer %q (%T) is not on the stateless list; refusing to wrap it", l.Name(), l)
		}
		wrapped[i] = &tracedLayer{inner: l, p: p, fwd: "layer." + l.Name() + ".fwd", bwd: "layer." + l.Name() + ".bwd", shapes: true}
		children[i] = wrapped[i]
	}
	inner := nn.NewSequential(seq.Name(), children...)
	return nn.NewSequential(seq.Name(), &tracedLayer{inner: inner, p: p, fwd: fwd, bwd: bwd}), wrapped, nil
}

// tracedOpt times optimizer steps. traceOptimizer picks the variant
// that implements exactly the optional interfaces the inner optimizer
// does, so LR schedules and state capture behave as without the wrapper.
type tracedOpt struct {
	inner nn.Optimizer
	p     *party
}

func (o *tracedOpt) Name() string { return o.inner.Name() }

func (o *tracedOpt) Step(params []*nn.Param) {
	i := o.p.begin(spanOptStep)
	o.inner.Step(params)
	o.p.end(i)
}

type lrForward struct{ lr nn.LRAdjustable }

func (f lrForward) SetLR(lr float32) { f.lr.SetLR(lr) }

type stateForward struct{ so nn.StatefulOptimizer }

func (f stateForward) CaptureState(params []*nn.Param) nn.OptimizerState {
	return f.so.CaptureState(params)
}

func (f stateForward) RestoreState(params []*nn.Param, st nn.OptimizerState) error {
	return f.so.RestoreState(params, st)
}

type tracedOptLR struct {
	tracedOpt
	lrForward
}

type tracedOptStateful struct {
	tracedOpt
	stateForward
}

type tracedOptLRStateful struct {
	tracedOpt
	lrForward
	stateForward
}

var (
	_ nn.Optimizer         = (*tracedOpt)(nil)
	_ nn.LRAdjustable      = (*tracedOptLR)(nil)
	_ nn.StatefulOptimizer = (*tracedOptStateful)(nil)
	_ nn.LRAdjustable      = (*tracedOptLRStateful)(nil)
	_ nn.StatefulOptimizer = (*tracedOptLRStateful)(nil)
)

func traceOptimizer(o nn.Optimizer, p *party) nn.Optimizer {
	base := tracedOpt{inner: o, p: p}
	lr, isLR := o.(nn.LRAdjustable)
	so, isStateful := o.(nn.StatefulOptimizer)
	switch {
	case isLR && isStateful:
		return &tracedOptLRStateful{base, lrForward{lr}, stateForward{so}}
	case isLR:
		return &tracedOptLR{base, lrForward{lr}}
	case isStateful:
		return &tracedOptStateful{base, stateForward{so}}
	default:
		return &base
	}
}

// tracedLoss times the platform-side loss.
type tracedLoss struct {
	inner nn.Loss
	p     *party
}

var _ nn.Loss = (*tracedLoss)(nil)

func (l *tracedLoss) Name() string { return l.inner.Name() }

func (l *tracedLoss) Loss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	i := l.p.begin(spanLoss)
	v, g := l.inner.Loss(logits, labels)
	l.p.end(i)
	return v, g
}

// tracedGate is an always-open compute gate: it admits at once and
// records how long the server held the gate, which brackets every
// back-half forward, backward and step, including the gradient zeroing
// and clipping between them that no other seam sees.
type tracedGate struct{ p *party }

var _ core.ComputeGate = (*tracedGate)(nil)

func (g *tracedGate) Acquire() func() {
	i := g.p.begin(spanCompute)
	return func() { g.p.end(i) }
}

// roundClock stamps round completions. It sits on the connection that
// carries a round's last message — the server end of the last
// platform's link, where the cut gradient is the round's final send —
// and is the one piece of wiring the untraced run keeps.
type roundClock struct {
	epoch  time.Time
	stamps []time.Duration // stamps[r] = completion of round r
	first  time.Duration   // first activations message seen
}

func (rc *roundClock) cutGradSent(m *wire.Message) {
	if m.Type == wire.MsgCutGrad {
		rc.stamps = append(rc.stamps, time.Since(rc.epoch))
	}
}

func (rc *roundClock) activationsSeen(m *wire.Message) {
	if rc.first == 0 && m.Type == wire.MsgActivations {
		rc.first = time.Since(rc.epoch)
	}
}
