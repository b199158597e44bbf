package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"medsplit/internal/dataset"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/simnet"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wal"
	"medsplit/internal/wire"
)

// Stand-alone probes: each calls one layer's public functions at the
// shapes and sizes the workload was observed to use, outside any
// session, so a layer's cost can be read without the rest of the round
// around it. Every probe repeats its call for the prober's budget and
// reports the median of per-call (or per-chunk) times.
type prober struct{ budget time.Duration }

// probeBudget is what a full-size run spends on each probe.
const probeBudget = 60 * time.Millisecond

func newProber(o runOpts) prober {
	if o.scale > 0 && o.scale < 1 {
		return prober{budget: time.Duration(o.scale * float64(probeBudget))}
	}
	return prober{budget: probeBudget}
}

// timeCalls runs fn in chunks of `chunk` calls until the budget is
// spent and returns the median per-call time.
func (pr prober) timeCalls(chunk int, fn func()) time.Duration {
	fn() // warm caches and lazy buffers
	var per []float64
	deadline := time.Now().Add(pr.budget)
	for time.Now().Before(deadline) || len(per) < 3 {
		t0 := time.Now()
		for i := 0; i < chunk; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(chunk))
	}
	return time.Duration(median(per))
}

func fillNorm(t *tensor.Tensor, r *rng.RNG) {
	d := t.Data()
	for i := range d {
		d[i] = r.NormFloat32()
	}
}

// probeGemm measures tensor.MatMulInto at g in GFLOP/s.
func (pr prober) gemm(g gemmShape) float64 {
	if g.M == 0 {
		return 0
	}
	r := rng.New(1)
	a, b, dst := tensor.New(g.M, g.K), tensor.New(g.K, g.N), tensor.New(g.M, g.N)
	fillNorm(a, r)
	fillNorm(b, r)
	per := pr.timeCalls(4, func() { tensor.MatMulInto(dst, a, b) })
	return float64(g.flops()) / float64(per)
}

// probeIm2col measures tensor.Im2ColInto at cs (stride 1, "same"
// padding — the only geometry VGG-lite uses) in ms per call.
func (pr prober) im2col(cs convShape) float64 {
	if cs.N == 0 {
		return 0
	}
	x := tensor.New(cs.N, cs.C, cs.H, cs.W)
	fillNorm(x, rng.New(2))
	cols := tensor.New(cs.N*cs.H*cs.W, cs.C*cs.Kh*cs.Kw)
	per := pr.timeCalls(2, func() { tensor.Im2ColInto(cols, x, cs.Kh, cs.Kw, 1, (cs.Kh-1)/2) })
	return float64(per) / 1e6
}

// probeFrame measures one Message.Write plus one ReadPooled through an
// in-memory buffer at the given payload size, in µs.
func (pr prober) frame(payload int) float64 {
	m := &wire.Message{Type: wire.MsgActivations, Platform: 1, Round: 7, Payload: make([]byte, payload)}
	var buf bytes.Buffer
	per := pr.timeCalls(64, func() {
		buf.Reset()
		if _, err := m.Write(&buf); err != nil {
			panic(err) // a valid type and a small payload cannot fail
		}
		got, _, err := wire.ReadPooled(&buf, &wire.Buffers)
		if err != nil {
			panic(err)
		}
		wire.ReleasePayload(&wire.Buffers, got)
	})
	return float64(per) / 1e3
}

// probeRTT measures a header-only ping-pong on the named transport and
// returns the median round trip in µs.
func (pr prober) rtt(link string) (float64, error) {
	var a, b transport.Conn
	switch link {
	case "tcp":
		ln, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer ln.Close()
		if a, err = transport.Dial(ln.Addr()); err != nil {
			return 0, err
		}
		if b, err = ln.Accept(); err != nil {
			a.Close()
			return 0, err
		}
	case "pipe":
		a, b = transport.Pipe()
	case "simnet":
		_, pairs := simnet.Ideal(1, simnet.Options{})
		a, b = pairs[0].Platform, pairs[0].Server
	default:
		return 0, fmt.Errorf("bench: unknown link %q", link)
	}
	defer a.Close()
	defer b.Close()
	echoDone := make(chan error, 1)
	go func() {
		for {
			m, err := b.Recv()
			if err != nil {
				echoDone <- nil // the prober closed its end
				return
			}
			if err := b.Send(m); err != nil {
				echoDone <- err
				return
			}
		}
	}()
	ping := &wire.Message{Type: wire.MsgAck}
	var rtts []float64
	deadline := time.Now().Add(pr.budget)
	for i := 0; time.Now().Before(deadline) || i < 50; i++ {
		t0 := time.Now()
		if err := a.Send(ping); err != nil {
			return 0, err
		}
		if _, err := a.Recv(); err != nil {
			return 0, err
		}
		if i >= 10 { // the first few trips warm the path
			rtts = append(rtts, float64(time.Since(t0))/1e3)
		}
	}
	a.Close()
	if err := <-echoDone; err != nil {
		return 0, err
	}
	return median(rtts), nil
}

// probeWAL measures wal.Append at the given record size under the given
// policy, in µs per append, in a scratch log under tmp.
func (pr prober) walAppend(tmp string, size int, opts wal.Options) (float64, error) {
	dir, err := os.MkdirTemp(tmp, "walprobe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, opts)
	if err != nil {
		return 0, err
	}
	defer log.Close()
	rec := make([]byte, size)
	var per []float64
	deadline := time.Now().Add(pr.budget)
	for i := 0; time.Now().Before(deadline) || i < 20; i++ {
		t0 := time.Now()
		if _, err := log.Append(rec); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0))/1e3)
	}
	return median(per), nil
}

// probeBatch measures one BatchSampler.Next plus Dataset.BatchInto at
// the workload's batch size, in µs.
func (pr prober) batch(shard *dataset.Dataset, rows int) float64 {
	idx := make([]int, shard.Len())
	for i := range idx {
		idx[i] = i
	}
	sampler := dataset.NewBatchSampler(idx, rows, rng.New(3))
	var x *tensor.Tensor
	var labels []int
	per := pr.timeCalls(16, func() { x, labels = shard.BatchInto(x, labels, sampler.Next()) })
	return float64(per) / 1e3
}

// probeForward measures an inference forward of seq on a fixed input,
// in ms per call.
func (pr prober) forward(seq *nn.Sequential, x *tensor.Tensor) float64 {
	per := pr.timeCalls(2, func() { seq.Forward(x, false) })
	return float64(per) / 1e6
}
