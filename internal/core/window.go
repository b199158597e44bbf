package core

// This file holds the scheduler behind sequential mode: a window of
// rounds run as a wavefront of per-platform exchanges (see
// Server.advance). The consistency spectrum (README "Consistency
// spectrum") is one knob on it, the staleness cap K, which sets the
// window width K+1. One round wide, the window is lockstep scheduling:
// each exchange runs from activations to cut gradient before the next
// platform's starts, so a round costs the *sum* over platforms of their
// WAN round trips and compute, and a straggler's slow turnaround stalls
// everyone behind it. Wider windows trade the bit-identity away for
// overlap: an exchange pauses once its logits leave and resumes at the
// loss gradient later, so while one platform's gradient crosses the WAN
// the server services the other platforms — and with a round stagger,
// their *later rounds*. A delay spike or compute straggler then
// overlaps useful work instead of blocking it.

// pauses reports whether the configured schedule pauses exchanges
// between their halves, which runs them ahead of the session loop's
// round counter: any staleness cap K > 0. At K=0 the window is one
// round wide and never pauses.
func (cfg *ServerConfig) pauses() bool {
	return cfg.Staleness > 0
}

// windowScheduler executes training rounds in staggered windows. When
// the session loop asks for round r and the window [r, end] has not
// run yet, the scheduler runs the whole window as a software-pipelined
// wavefront and the remaining trainRound calls inside the window are
// no-ops.
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
type windowScheduler struct {
	// flushedThrough is one past the last round every platform has
	// completed; trainRound calls below it are no-ops.
	flushedThrough int
}

func (w *windowScheduler) trainRound(s *Server, r int) error {
	if r < w.flushedThrough {
		return nil // covered by the window a previous call processed
	}
	end := w.windowEnd(s, r)
	// Stagger K-1 waves so a forward misses at most K rounds of updates
	// (see type doc).
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
			if s.ex[k].paused {
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
	w.flushedThrough = end + 1
	return nil
}

// windowEnd returns the last round of the window opening at r: bounded
// by the staleness window (K+1 rounds), the end of the session, and the
// next L1-sync or eval boundary (every platform must be flushed before
// a barrier phase runs).
func (w *windowScheduler) windowEnd(s *Server, r int) int {
	end := min(r+s.cfg.Staleness, s.cfg.Rounds-1)
	plan := s.plan()
	for q := r; q < end; q++ {
		if plan.syncRound(q) || plan.evalRound(q) {
			return q
		}
	}
	return end
}
