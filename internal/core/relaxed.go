package core

import (
	"fmt"

	"medsplit/internal/tensor"
)

// This file is the relaxed-consistency side of the scheduler spectrum
// (README "Consistency spectrum"). Sequential scheduling serializes
// every platform's logits → loss-grad turnaround on the server's
// clock: each exchange is atomic, so a round costs the
// *sum* over platforms of their WAN round trips and compute, and a
// straggler's slow turnaround stalls everyone behind it. The staggered
// scheduler below trades the bit-identity away for overlap: exchanges
// are split into halves (ship the logits, come back for the loss
// gradient later), so while one platform's gradient crosses the WAN
// the server services the other platforms — and with a round stagger,
// their *later rounds*. A delay spike or compute straggler then
// overlaps useful work instead of blocking it.

// relaxedMode reports whether a round mode runs platform exchanges
// ahead of the session loop's round counter (see windowScheduler).
func relaxedMode(m RoundMode) bool {
	return m == RoundModeBoundedStaleness || m == RoundModeSplitFed
}

// windowScheduler executes training rounds in staggered windows. When
// the session loop asks for round r and the window [r, end] has not
// run yet, the scheduler runs the whole window as a software-pipelined
// wavefront and the remaining trainRound calls inside the window are
// no-ops.
//
// Within a wave, each platform k advances by one half-exchange pair:
// first the second half of its previous exchange (receive the loss
// gradient, replay the forward, backward, step, ship the cut
// gradient), then the first half of its next one (receive activations,
// forward, ship logits). Platform k's rounds are offset by a stagger
// of min(k, cap) waves, so lower-numbered platforms run ahead: when
// the server blocks on a straggler's late message, the fast platforms'
// exchanges for later rounds have already been processed at earlier
// virtual times and are absorbed into the wait.
//
// Staleness accounting: an exchange's forward at stagger cap C can
// miss at most C+1 rounds of the other platforms' updates (C rounds of
// stagger plus the half-exchange in flight), so bounded staleness with
// cap K runs windows of K+1 rounds with stagger cap K-1. The window
// never crosses an L1-sync or eval boundary: barrier phases observe a
// fully flushed state, which is what lets SplitFed's periodic weight
// averaging run through the ordinary session state machine. With
// window == 0 the window extends to the next sync/eval boundary and
// the stagger spans it (RoundModeSplitFed: platforms run
// local-parallel between syncs, staleness capped by the averaging
// period itself).
//
// Over the wire this needs no platform-side changes: each platform
// independently walks its session and blocks on the server's replies,
// so the server's processing order alone decides the consistency
// model. Processing is single-goroutine in a fixed wave order, which
// keeps relaxed sessions deterministic under fixed seeds and identical
// across transports (the differential suite runs them twice and
// compares digests).
type windowScheduler struct {
	// window is the number of consecutive rounds one window spans (the
	// staleness cap plus one). 0 means unbounded: the window extends
	// to the next sync/eval boundary.
	window int
	// flushedThrough is one past the last round every platform has
	// completed; trainRound calls below it are no-ops.
	flushedThrough int
}

// halfOpen tracks a platform's exchange between its two halves: the
// round in flight and the logits the loss gradient must match.
type halfOpen struct {
	round int
	z     *tensor.Tensor
	open  bool
}

func (w *windowScheduler) trainRound(s *Server, r int) error {
	if r < w.flushedThrough {
		return nil // covered by the window a previous call processed
	}
	end := w.windowEnd(s, r)
	stagger := end - r // splitfed: full stagger across the window
	if w.window > 0 {
		// Bounded staleness cap K = window-1: stagger K-1 waves so a
		// forward misses at most K rounds of updates (see type doc).
		if c := w.window - 2; c < stagger {
			stagger = c
		}
		if stagger < 0 {
			stagger = 0
		}
	}
	pending := make([]halfOpen, s.cfg.Platforms)
	// Waves 0..end-r+stagger open first halves; one extra wave drains
	// the second halves still in flight after the last opener.
	lastWave := (end - r) + stagger
	for wave := 0; wave <= lastWave+1; wave++ {
		if err := s.reg.each(func(k int, ps *platformState) error {
			if ps.status == PlatformDropped {
				return nil
			}
			if pending[k].open {
				f := pending[k]
				pending[k] = halfOpen{}
				if err := s.exchangeBack(k, f.round, f.z); err != nil {
					return fmt.Errorf("core: platform %d staggered round %d: %w", k, f.round, err)
				}
			}
			off := k
			if off > stagger {
				off = stagger
			}
			q := r + wave - off
			if q < r || q > end {
				return nil
			}
			z, err := s.exchangeFront(k, q)
			if err != nil {
				return fmt.Errorf("core: platform %d staggered round %d: %w", k, q, err)
			}
			if z != nil {
				pending[k] = halfOpen{round: q, z: z, open: true}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	w.flushedThrough = end + 1
	return nil
}

// windowEnd returns the last round of the window opening at r: bounded
// by the staleness window, the end of the session, and the next
// L1-sync or eval boundary (every platform must be flushed before a
// barrier phase runs).
func (w *windowScheduler) windowEnd(s *Server, r int) int {
	end := s.cfg.Rounds - 1
	if w.window > 0 && r+w.window-1 < end {
		end = r + w.window - 1
	}
	plan := s.plan()
	for q := r; q < end; q++ {
		if plan.syncRound(q) || plan.evalRound(q) {
			return q
		}
	}
	return end
}
