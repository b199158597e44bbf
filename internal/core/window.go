package core

import "medsplit/internal/tensor"

// This file holds the two round modes, which only order the platforms'
// exchanges on the one exchange engine (Server.advance). Sequential runs
// a window of rounds as a wavefront of per-platform exchanges. The consistency spectrum (README "Consistency spectrum")
// is one knob on it, the staleness cap K, which sets the window width
// K+1. One round wide, the window is lockstep scheduling: each exchange
// runs from activations to cut gradient before the next platform's
// starts, so a round costs the *sum* over platforms of their WAN round
// trips and compute, and a straggler's slow turnaround stalls everyone
// behind it. Wider windows trade the bit-identity away for overlap: an
// exchange pauses once its logits leave and resumes at the loss
// gradient later, so while one platform's gradient crosses the WAN the
// server services the other platforms — and with a round stagger, their
// *later rounds*. A delay spike or compute straggler then overlaps
// useful work instead of blocking it.

// pauses reports whether the configured schedule pauses exchanges
// between their halves, which runs them ahead of the session loop's
// round counter: any staleness cap K > 0. At K=0 the window is one
// round wide and never pauses.
func (cfg *ServerConfig) pauses() bool {
	return cfg.Staleness > 0
}

// windowRound executes sequential training rounds in staggered
// windows. When the session loop asks for round r and the window
// [r, end] has not run yet, it runs the whole window as a
// software-pipelined wavefront and the remaining calls inside the
// window are no-ops.
//
// Within a wave, each platform k first resumes its paused exchange, if
// it has one (receive the loss gradient, replay the forward, backward,
// step, ship the cut gradient), then opens its next one and runs it
// until the logits leave (receive activations, forward, ship logits).
// Platform k's rounds are offset by a stagger of min(k, cap) waves, so
// lower-numbered platforms run ahead: when the server blocks on a
// straggler's late message, the fast platforms' exchanges for later
// rounds have already been processed at earlier virtual times and are
// absorbed into the wait.
//
// Staleness accounting: an exchange's forward at stagger cap C can
// miss at most C+1 rounds of the other platforms' updates (C rounds of
// stagger plus the paused exchange in flight), so a cap K runs windows
// of K+1 rounds with stagger cap K-1. At K=0 the window is one round
// wide and its exchanges run through without pausing: the lockstep
// sequential schedule. The window never crosses an L1-sync or eval
// boundary: barrier phases observe a fully flushed state, which is what
// lets periodic weight averaging run through the ordinary session state
// machine. Once K reaches the L1-sync period P, every window ends at a
// sync boundary before K+1 rounds and spans at most P rounds, so the
// stagger cap K-1 never binds either: platforms run local-parallel
// between averaging barriers (SplitFed-style), and every K >= P is the
// same schedule.
//
// Over the wire this needs no platform-side changes: each platform
// independently walks its session and blocks on the server's replies,
// so the server's processing order alone decides the consistency
// model. Processing is single-goroutine in a fixed wave order, which
// keeps relaxed sessions deterministic under fixed seeds and identical
// across transports (the differential suite runs them twice and
// compares digests).
func (s *Server) windowRound(r int) error {
	if r < s.flushedThrough {
		return nil // covered by the window a previous call processed
	}
	end := s.windowEnd(r)
	// Stagger K-1 waves so a forward misses at most K rounds of updates
	// (see above).
	stagger := min(end-r, max(s.cfg.Staleness-1, 0))
	stop := posDone // a one-round window has nothing to overlap
	if s.cfg.pauses() {
		stop = posLossGrad
	}
	// Waves 0..end-r+stagger open exchanges; one extra wave resumes the
	// exchanges still paused after the last opener.
	lastWave := (end - r) + stagger
	for wave := 0; wave <= lastWave+1; wave++ {
		for k := range s.ex {
			if s.reg.state(k).status == PlatformDropped {
				continue
			}
			if s.ex[k].pos == posLossGrad { // paused in an earlier wave
				if err := s.advance(k, posDone); err != nil {
					return err
				}
			}
			q := r + wave - min(k, stagger)
			if q < r || q > end {
				continue
			}
			if s.promo != nil && q == s.promo.round && s.promo.done[k] {
				// Failover resume: the dead leader already recorded this
				// platform's step for this round — it lives in the replayed
				// state — and Promote replayed the platform its cut gradient.
				continue
			}
			s.ex[k] = exchange{round: q}
			if err := s.advance(k, stop); err != nil {
				return err
			}
		}
	}
	s.flushedThrough = end + 1
	return nil
}

// windowEnd returns the last round of the window opening at r: bounded
// by the staleness window (K+1 rounds), the end of the session, and the
// next L1-sync or eval boundary (every platform must be flushed before
// a barrier phase runs).
func (s *Server) windowEnd(r int) int {
	end := min(r+s.cfg.Staleness, s.cfg.Rounds-1)
	plan := s.plan()
	for q := r; q < end; q++ {
		if plan.syncRound(q) || plan.evalRound(q) {
			return q
		}
	}
	return end
}

// concatRound executes round r in concat mode: one optimizer step on
// the union of every platform's minibatch. It moves every exchange one
// stop at a time, platform by platform, and at each stop where a result
// is due computes it once for all of them (see fuse). Concat refuses
// recovery and replication, so every platform is active.
func (s *Server) concatRound(r int) error {
	for k := range s.ex {
		s.ex[k] = exchange{round: r}
	}
	stops := []int{posLogits, posLossGrad, posCutGrad, posDone}
	if s.cfg.LabelSharing {
		stops = stops[2:]
	}
	for _, stop := range stops {
		for k := range s.ex {
			if err := s.advance(k, stop); err != nil {
				return err
			}
		}
		if stop == posLogits || stop == posCutGrad {
			s.fuse(stop)
		}
	}
	return nil
}

// fuse fills the logits (at posLogits) or cut gradients (posCutGrad)
// of every exchange parked at stop with one forward or backward on an
// exchange that stacks them all. Each loss gradient is its platform's
// minibatch mean, so it is rescaled by s_k/S (s.lastBatch holds this
// round's s_k) to make the fused one the union-batch mean.
func (s *Server) fuse(stop int) {
	var f exchange
	if stop == posLogits || s.cfg.LabelSharing {
		f.a = s.stack(&s.fusedActs, func(x *exchange) *tensor.Tensor { return x.a })
	}
	if stop == posLogits {
		s.forward(&f)
		s.splitZ = tensor.SplitDim0Into(s.splitZ, f.z, s.lastBatch)
		for k, zk := range s.splitZ {
			s.ex[k].z = zk
		}
		return
	}
	if s.cfg.LabelSharing {
		f.labels = s.fusedLabels[:0]
		for k := range s.ex {
			f.labels = append(f.labels, s.ex[k].labels...)
		}
		s.fusedLabels = f.labels
	} else {
		total := 0
		for _, n := range s.lastBatch {
			total += n
		}
		for k := range s.ex {
			s.ex[k].dz.Scale(float32(s.lastBatch[k]) / float32(total))
		}
		f.dz = s.stack(&s.fusedGrad, func(x *exchange) *tensor.Tensor { return x.dz })
	}
	s.backward(&f)
	s.splitDA = tensor.SplitDim0Into(s.splitDA, f.da, s.lastBatch)
	for k, dak := range s.splitDA {
		s.ex[k].da, s.ex[k].lossVal = dak, f.lossVal
	}
}

// stack concatenates part of every exchange along dim 0 into *dst,
// which is reused across rounds.
func (s *Server) stack(dst **tensor.Tensor, part func(*exchange) *tensor.Tensor) *tensor.Tensor {
	s.fuseParts = s.fuseParts[:0]
	total := 0
	for k := range s.ex {
		t := part(&s.ex[k])
		s.fuseParts = append(s.fuseParts, t)
		total += t.Dim(0)
	}
	*dst = tensor.EnsureShape(*dst, append([]int{total}, s.fuseParts[0].Shape()[1:]...)...)
	return tensor.ConcatDim0Into(*dst, s.fuseParts...)
}
