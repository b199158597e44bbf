package main

import (
	"time"

	"medsplit/internal/nn"
	"medsplit/internal/serve"
	"medsplit/internal/tensor"
)

// runServeWorkload is one run of a serving workload. It sets the
// process up serveSetups times and reports the median set-up time (a
// serving set-up takes ~10 ms, so it takes more of them than a training
// run to steady the median). The last measuredSessions set-ups each
// carry a load phase of o.seconds/measuredSessions, in the run's mode
// (traced or not), and their windows are pooled (see windowed). The
// traced run takes its per-layer figures from the last phase and ends
// with referenceSessions untraced phases of the same length, which
// trace.overhead compares against; they run last so that both sides of
// the comparison run in a warm process.
func runServeWorkload(w *workload, o runOpts) *runResult {
	res := newResult(w, o)
	def := w.Serve
	fx, err := newServeFixture(o.seed)
	if err != nil {
		res.problem("inputs: %v", err)
		return res.finish()
	}
	length := time.Duration(o.seconds / measuredSessions * float64(time.Second))
	// Most requests one connection may carry: half the offered load plus
	// a wide margin, or four times any plausible closed-loop rate.
	capacity := int(def.Rate*length.Seconds()*0.75) + 1000
	if def.Rate == 0 {
		capacity = int(6000*length.Seconds()) + 1000
	}

	// measured is what `setups` set-ups, the last `phases` of them
	// loaded, gave.
	type measured struct {
		win       windowed
		latencyMs []float64
		setups    []float64
		attempted int
		failed    int
		wrong     int
		bytes     int64
		refused   serve.InferStats
		s         *serveSession // the last set-up and its phase
		ph        *phaseOutcome
	}
	measure := func(setups, phases int, traced bool) *measured {
		m := &measured{}
		for i := 0; i < setups; i++ {
			loaded := i >= setups-phases
			s, err := buildServe(o.seed, fx, loaded && traced, capacity)
			if err != nil {
				res.problem("set-up: %v", err)
				return nil
			}
			m.setups = append(m.setups, s.setup.Seconds())
			var ph *phaseOutcome
			if loaded {
				ph, err = s.runPhase(def, o.seed+uint64(i), length, traced)
			}
			s.close()
			if err != nil {
				res.problem("load phase: %v", err)
				return nil
			}
			if !loaded {
				continue
			}
			m.s, m.ph = s, ph
			m.attempted += ph.attempted
			m.failed += ph.failed
			m.wrong += ph.wrong
			m.bytes += ph.bytes
			m.refused.Rejected += ph.stats.Rejected
			m.refused.Shed += ph.stats.Shed
			m.refused.Expired += ph.stats.Expired
			m.win.add(ph.doneAt, ph.latencyMs, rateWindows/phases)
			m.latencyMs = append(m.latencyMs, ph.latencyMs...)
		}
		return m
	}

	m := measure(serveSetups, measuredSessions, o.traced)
	if m == nil {
		return res.finish()
	}
	res.Attempted, res.Failed = m.attempted, m.failed
	if m.wrong > 0 {
		res.problem("%d of %d responses were missing or differed from the reference forward", m.wrong, m.attempted)
	}
	if m.refused.Rejected > 0 {
		res.problem("the server rejected %d requests (%d shed, %d expired)", m.refused.Rejected, m.refused.Shed, m.refused.Expired)
	}

	lat := summarize(m.latencyMs)
	res.Dists["op_ms"] = lat
	res.Dists["ops_per_s"] = summarize(m.win.rates)
	res.Dists["setup_s"] = summarize(m.setups)

	if !o.traced {
		res.fill(endToEnd, map[string]float64{
			"setup_s":           median(m.setups),
			"ops_per_s":         median(m.win.rates),
			"op_p50_ms":         median(m.win.p50),
			"wire_bytes_per_op": float64(m.bytes) / float64(m.attempted),
			"peak_rss_mb":       peakRSSMB(),
		})
		return res.finish()
	}

	// Per-layer figures describe the last phase.
	s, ph := m.s, m.ph
	v := map[string]float64{}
	pr := newProber(o)
	lat = summarize(ph.latencyMs)
	resid := summarize(ph.residence)
	res.Dists["residence_ms"] = resid
	v["serve.residence_p50_ms"] = resid.Median
	v["serve.residence_p99_ms"] = resid.at(99)
	v["serve.infer_p99_ms"] = lat.at(99)
	v["serve.client_overhead_ms"] = lat.Median - resid.Median
	if ph.stats.Batches > 0 {
		v["serve.batch_rows_mean"] = float64(ph.stats.Requests*serveRows) / float64(ph.stats.Batches)
	}
	v["serve.shed"] = float64(ph.stats.Shed)
	v["serve.expired"] = float64(ph.stats.Expired)
	v["serve.rejected"] = float64(ph.stats.Rejected)

	// Compute probes on the reference back half: one request alone, and
	// a full batch of four.
	back := fx.refBacks[0]
	one := fx.inputs[0][0].acts
	four := make([]*tensor.Tensor, 0, 4)
	for i := 0; i < 4; i++ {
		four = append(four, fx.inputs[0][i].acts)
	}
	full := tensor.ConcatDim0Into(tensor.New(append([]int{4 * serveRows}, one.Shape()[1:]...)...), four...)
	v["serve.compute_ms.b2"] = pr.forward(back, one)
	v["serve.compute_ms.b8"] = pr.forward(back, full)
	v["serve.batch_wait_ms"] = resid.Median - v["serve.compute_ms.b2"]
	gemm, conv := largestShapes(back, full)
	v["tensor.gemm_gflops"] = pr.gemm(gemm)
	v["tensor.im2col_ms"] = pr.im2col(conv)
	v["wire.frame_us_per_msg"] = pr.frame(len(fx.inputs[0][0].payload))
	if rtt, err := pr.rtt("tcp"); err == nil {
		v["transport.rtt_us"] = rtt
	}
	v["models.build_ms"] = float64(s.buildNs.Load()) / 1e6

	if n := float64(ph.attempted); n > 0 {
		v["go.mallocs_per_req"] = float64(ph.mem1.Mallocs-ph.mem0.Mallocs) / n
	}
	v["go.gc_pause_ms_per_s"] = float64(ph.mem1.PauseTotalNs-ph.mem0.PauseTotalNs) / 1e6 / ph.length.Seconds()
	if len(ph.lateMs) > 0 {
		late := summarize(ph.lateMs)
		res.Dists["loadgen_late_ms"] = late
		v["loadgen.late_p99_ms"] = late.at(99)
	}
	if ref := measure(referenceSessions, referenceSessions, false); ref != nil {
		if def.Rate > 0 {
			// An open loop's throughput is its offered rate; the overhead
			// shows in latency instead.
			v["trace.overhead"] = median(m.win.p50)/median(ref.win.p50) - 1
		} else {
			v["trace.overhead"] = 1 - median(m.win.rates)/median(ref.win.rates)
		}
	}
	res.fill(perLayer, v)
	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, w.Name, []*party{ph.residenceParty}); err != nil {
			res.problem("%v", err)
		}
	}
	return res.finish()
}

// largestShapes runs x once through a wrapped copy of the layer list to
// learn the largest matrix product and convolution input behind it.
func largestShapes(seq *nn.Sequential, x *tensor.Tensor) (gemmShape, convShape) {
	scratch := newParty("probe", time.Now())
	wrapped, wraps, err := traceHalf(seq, scratch, "probe.fwd", "probe.bwd")
	if err != nil {
		return gemmShape{}, convShape{}
	}
	wrapped.Forward(x, false)
	return largestOf(wraps)
}
