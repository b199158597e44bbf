package main

import (
	"math"
	"runtime"
	"time"

	"medsplit/internal/wal"
	"medsplit/internal/wire"
)

// runTrainWorkload is one run of a training workload.
//
//   - A pilot session of PilotRounds sizes the measured sessions so that
//     together they last about o.seconds.
//   - The run measures measuredSessions equal sessions, each set up
//     afresh from the same seed, in the run's mode (traced or not), and
//     pools their windows (see windowed). Their final weight digests
//     must be equal: the session is deterministic.
//   - setup_s is the median over all these set-ups.
//   - The traced run takes its per-layer figures from the last measured
//     session and ends with referenceSessions untraced sessions of the
//     same length. Their digest must equal the traced one — tracing does
//     not change what is computed — and their rate is what
//     trace.overhead compares against. They run last so that both sides
//     of the comparison run in a warm process.
func runTrainWorkload(w *workload, o runOpts) *runResult {
	res := newResult(w, o)
	def := w.Train

	session := func(rounds int, traced bool) (*trainSession, *trainOutcome) {
		// Every session starts from a collected heap, so that neither
		// its set-up time nor the process's peak memory depends on how
		// much of the previous session's data the collector had got to.
		runtime.GC()
		s, err := buildTrain(w, o, rounds, traced)
		if err != nil {
			res.problem("set-up: %v", err)
			return nil, nil
		}
		out := s.run()
		if out.err != nil {
			res.problem("%d-round session: %v", rounds, out.err)
			return nil, nil
		}
		return s, out
	}

	pilot := scaled(def.PilotRounds, o.scale, 6)
	_, p := session(pilot, false)
	if p == nil {
		return res.finish()
	}
	total := int(wallRate(p.stamps, pilot/2) * o.seconds)
	if min := scaled(def.MinRounds, o.scale, 24); total < min {
		total = min
	}
	rounds := total / measuredSessions

	// measured is what n sessions of `rounds` rounds gave.
	type measured struct {
		win       windowed  // op times: wall clock, or virtual on the simulated WAN
		wallRates []float64 // wall-clock window rates, for trace.overhead
		opMs      []float64
		setups    []float64
		wireBytes int64
		digest    uint64
		s         *trainSession // the last session and its outcome
		out       *trainOutcome
	}
	measure := func(n int, traced bool) *measured {
		m := &measured{}
		for i := 0; i < n; i++ {
			m.s, m.out = nil, nil // let go of the previous session first
			s, c := session(rounds, traced)
			if c == nil {
				return nil
			}
			if i > 0 && c.digest != m.digest {
				res.problem("weight digest differs between two sessions of one seed: %016x vs %016x", m.digest, c.digest)
			}
			if movingMeanReach(c.losses, lossWindow, def.LossTarget) < 0 && o.scale >= 1 {
				res.problem("10-round mean loss never reached %.3g in %d rounds (last %.4g)", def.LossTarget, rounds, tailMean(c.losses, lossWindow))
			}
			if c.wireBytes%int64(rounds) != 0 {
				res.problem("training bytes %d do not divide by %d rounds: rounds differ in size", c.wireBytes, rounds)
			}
			m.s, m.out, m.digest = s, c, c.digest
			m.wireBytes += c.wireBytes
			m.setups = append(m.setups, c.setup.Seconds())
			wall := steadyStamps(c.stamps, s.warm)
			m.wallRates = append(m.wallRates, windowRates(wall, rateWindows/n)...)
			steady := wall
			if c.vstamps != nil {
				steady = steadyStamps(c.vstamps, s.warm)
			}
			opMs := intervalsMs(steady)
			m.win.add(steady, opMs, rateWindows/n)
			m.opMs = append(m.opMs, opMs...)
		}
		return m
	}

	m := measure(measuredSessions, o.traced)
	if m == nil {
		return res.finish()
	}
	res.Attempted = measuredSessions * rounds
	setups := append(m.setups, p.setup.Seconds())
	res.Dists["ops_per_s"] = summarize(m.win.rates)
	res.Dists["op_ms"] = summarize(m.opMs)
	res.Dists["setup_s"] = summarize(setups)

	if !o.traced {
		res.fill(endToEnd, map[string]float64{
			"setup_s":           median(setups),
			"ops_per_s":         median(m.win.rates),
			"op_p50_ms":         median(m.win.p50),
			"wire_bytes_per_op": float64(m.wireBytes) / float64(res.Attempted),
			"peak_rss_mb":       peakRSSMB(),
		})
		return res.finish()
	}

	vals := trainLayerMetrics(m.s, m.out, o)
	vals["core.rounds_to_target"] = float64(movingMeanReach(m.out.losses, lossWindow, def.LossTarget) + 1)
	vals["core.final_loss"] = tailMean(m.out.losses, lossWindow)
	if ref := measure(referenceSessions, false); ref != nil {
		if ref.digest != m.digest {
			res.problem("weight digest differs between the traced and the untraced sessions: %016x vs %016x", m.digest, ref.digest)
		}
		vals["trace.overhead"] = 1 - median(m.wallRates)/median(ref.wallRates)
	}
	res.fill(perLayer, vals)
	res.Dists["round_wall_ms"] = summarize(intervalsMs(steadyStamps(m.out.stamps, m.s.warm)))
	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, w.Name, append([]*party{m.s.srvParty}, m.s.platParty...)); err != nil {
			res.problem("%v", err)
		}
	}
	return res.finish()
}

// scaled shrinks n by scale (the smoke test's knob), never below floor.
func scaled(n int, scale float64, floor int) int {
	if scale <= 0 || scale >= 1 {
		return n
	}
	if m := int(float64(n) * scale); m > floor {
		return m
	}
	return floor
}

// wallRate is rounds per second from boundary `from` to the end.
func wallRate(stamps []time.Duration, from int) float64 {
	last := len(stamps) - 1
	if from >= last {
		from = 0
	}
	span := stamps[last] - stamps[from]
	if span <= 0 {
		return 0
	}
	return float64(last-from) / span.Seconds()
}

func tailMean(v []float64, n int) float64 {
	if len(v) < n {
		n = len(v)
	}
	if n == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v[len(v)-n:] {
		sum += x
	}
	return sum / float64(n)
}

// trainLayerMetrics turns the measured session's spans, counters and
// the stand-alone probes into the per-layer values of a training run.
func trainLayerMetrics(s *trainSession, out *trainOutcome, o runOpts) map[string]float64 {
	v := map[string]float64{}
	rounds := s.rounds
	pr := newProber(o)

	// The server's rounds are delimited by the round clock (which shares
	// the parties' epoch); platform 0's by its own cut-gradient receipts.
	srvBounds := make([]int64, len(s.clock.stamps))
	for i, t := range s.clock.stamps {
		srvBounds[i] = int64(t)
	}
	s.srvParty.spans = addGapsBefore(s.srvParty.spans, spanReplSend, spanReplRecord)
	srv := profileRounds(s.srvParty.spans, srvBounds, s.warm, rounds)
	p0spans := s.platParty[0].spans
	p0 := profileRounds(p0spans, boundsOf(p0spans, func(sp *span) bool {
		return sp.name == spanRecv && sp.tag == uint8(wire.MsgCutGrad)
	}), s.warm, rounds)

	v["core.trace_coverage"] = srv.coverage()
	v["core.server_self_ms"] = srv.perRoundMs(srv.wallNs - srv.topNs + srv.selfNs[spanCompute])
	v["core.platform_self_ms"] = p0.perRoundMs(p0.wallNs - p0.topNs)
	v["core.server_recv_wait_ms"] = srv.perRoundMs(srv.totalNs[spanRecv])
	v["core.platform_recv_wait_ms"] = p0.perRoundMs(p0.totalNs[spanRecv])
	v["core.msgs_per_round"] = float64(srv.count[spanSend]+srv.count[spanRecv]) / float64(srv.rounds)
	v["core.repl_record_ms"] = srv.perRoundMs(srv.totalNs[spanReplRecord])
	v["core.repl_ack_wait_ms"] = srv.perRoundMs(srv.totalNs[spanReplSend])
	v["core.repl_bytes_per_round"] = float64(srv.auxBytes[spanReplSend]) / float64(srv.rounds)
	wall := summarize(intervalsMs(steadyStamps(out.stamps, s.warm)))
	v["core.round_p99_ms"] = wall.at(99)
	v["core.wall_rounds_per_s"] = wallRate(out.stamps, s.warm)

	v["nn.front_forward_ms"] = p0.perRoundMs(p0.totalNs[spanFrontFwd])
	v["nn.front_backward_ms"] = p0.perRoundMs(p0.totalNs[spanFrontBwd])
	v["nn.back_forward_ms"] = srv.perRoundMs(srv.totalNs[spanBackFwd])
	v["nn.back_backward_ms"] = srv.perRoundMs(srv.totalNs[spanBackBwd])
	v["nn.loss_ms"] = p0.perRoundMs(p0.totalNs[spanLoss])
	v["nn.opt_step_ms"] = srv.perRoundMs(srv.totalNs[spanOptStep]) + p0.perRoundMs(p0.totalNs[spanOptStep])

	encNs := srv.totalNs[spanEncode] + p0.totalNs[spanEncode]
	decNs := srv.totalNs[spanDecode] + p0.totalNs[spanDecode]
	v["wire.encode_ms"] = srv.perRoundMs(encNs)
	v["wire.decode_ms"] = srv.perRoundMs(decNs)
	if s.def.Codec != "raw" {
		raw := srv.auxBytes[spanEncode] + p0.auxBytes[spanEncode]
		enc := srv.aux2[spanEncode] + p0.aux2[spanEncode]
		v["compress.ratio"] = float64(raw) / float64(enc)
		v["compress.encode_mb_per_s"] = float64(raw) / 1e6 / (float64(encNs) / 1e9)
		v["compress.decode_mb_per_s"] = float64(srv.auxBytes[spanDecode]+p0.auxBytes[spanDecode]) / 1e6 / (float64(decNs) / 1e9)
	}

	v["transport.send_ms"] = srv.perRoundMs(srv.totalNs[spanSend] + p0.totalNs[spanSend])
	srvBytes := srv.auxBytes[spanSend] + srv.auxBytes[spanRecv] + srv.auxBytes[spanReplSend]
	srvMsgs := srv.count[spanSend] + srv.count[spanRecv] + srv.count[spanReplSend]
	v["transport.bytes_per_round"] = float64(srvBytes) / float64(srv.rounds)
	v["transport.msgs_per_round"] = float64(srvMsgs) / float64(srv.rounds)

	var flops int64
	for _, l := range s.layerWraps {
		flops += l.flops()
	}
	largest, conv := largestOf(s.layerWraps)
	v["tensor.flop_per_round"] = float64(flops) / float64(rounds)
	v["tensor.gemm_gflops"] = pr.gemm(largest)
	v["tensor.im2col_ms"] = pr.im2col(conv)

	// The framing probe runs at the median frame the server moved.
	var sizes []float64
	for i := range s.srvParty.spans {
		sp := &s.srvParty.spans[i]
		if sp.name == spanSend || sp.name == spanRecv {
			sizes = append(sizes, float64(sp.aux))
		}
	}
	v["wire.frame_us_per_msg"] = pr.frame(int(median(sizes)) - wire.WireSizeFor(0))
	if rtt, err := pr.rtt(s.def.Link); err == nil {
		v["transport.rtt_us"] = rtt
		if s.def.Link == "simnet" {
			v["simnet.wall_us_per_msg"] = rtt / 2
		}
	}
	if s.wan != nil {
		v["simnet.sim_ms_per_round"] = float64(out.simElapsed) / 1e6 / float64(rounds)
		v["simnet.link_sim_ms"] = out.linkSimMs
	}

	if n := srv.count[spanReplSend]; n > 0 {
		record := int(srv.auxBytes[spanReplSend]/n) - wire.WireSizeFor(0)
		const walFrame = 8 // length + CRC per WAL record
		v["wal.bytes_per_round"] = float64(n*int64(record+walFrame)) / float64(srv.rounds)
		if us, err := pr.walAppend(o.tmp, record, wal.Options{SyncEvery: 1}); err == nil {
			v["wal.append_us"] = us
		}
		if us, err := pr.walAppend(o.tmp, record, wal.Options{}); err == nil {
			v["wal.append_nosync_us"] = us
		}
	}

	v["dataset.batch_us"] = pr.batch(s.shard0, s.def.Rows)
	v["dataset.synth_ms"] = float64(s.synthDur) / 1e6
	v["models.build_ms"] = float64(s.modelDur) / 1e6

	measured := float64(rounds - s.warm)
	v["go.mallocs_per_round"] = float64(s.memEnd.Mallocs-s.memWarm.Mallocs) / measured
	v["go.alloc_kb_per_round"] = float64(s.memEnd.TotalAlloc-s.memWarm.TotalAlloc) / 1024 / measured
	if span := out.stamps[rounds] - out.stamps[s.warm]; span > 0 {
		v["go.gc_pause_ms_per_s"] = float64(s.memEnd.PauseTotalNs-s.memWarm.PauseTotalNs) / 1e6 / span.Seconds()
	}
	return v
}
