package serve

import (
	"fmt"
	"sync"

	"medsplit/internal/core"
	"medsplit/internal/nn"
)

// breakerTripAfter is how many consecutive reload failures open the
// breaker, and breakerProbeEvery is how many ensure calls an open
// breaker skips before letting one probe retry the disk. Counts, not
// timers: the batcher's call cadence is the only clock this needs, and
// counts keep the breaker's behavior deterministic for tests.
const (
	breakerTripAfter  = 3
	breakerProbeEvery = 32
)

// modelCache keeps one tenant's back half warm for inference, keyed by
// checkpoint generation. A generation is a server snapshot's NextRound
// (the numbered server-%06d.ckpt files core writes); generation 0 is
// BuildBack's initial weights, before any checkpoint exists.
//
// The cache is pull-based: it touches disk only when a request asks
// for a generation newer than what is loaded (ensure's wantGen), via
// core.LoadLatestSnapshot + core.RestoreServerModel — a weights-only
// restore, since serving has no optimizer. That makes the refresh
// policy explicit in the protocol: a client that learns a new
// checkpoint landed sends its generation, and that request is what
// rolls the cache forward; clients that send 0 ride whatever is warm.
//
// Reloads are guarded by a circuit breaker: a corrupt or unreadable
// generation must degrade the tenant to its warm model (pinned
// requests get per-request generation-mismatch rejections), never fail
// every request or hammer the disk on every batch. After
// breakerTripAfter consecutive reload failures the breaker opens and
// ensure serves the warm model without touching disk; every
// breakerProbeEvery-th call lets one probe through, so a repaired
// checkpoint directory heals the tenant without intervention. Reload
// atomicity is what makes the degraded model trustworthy: the snapshot
// is restored into a freshly built model and swapped in only on
// success, so a restore that fails halfway can never leave the warm
// model half-overwritten.
//
// ensure is called only from the tenant's batcher goroutine. The model
// it returns is never modified once handed out (a reload builds a fresh
// one), and only the tenant's lane 0 Forwards it, one batch at a time;
// further lanes Forward replicas that share its weights read-only (see
// lane.follow). The mutex exists for the stats and health readers.
//
// precision selects the serving view of the back half (see
// TenantConfig.InferPrecision): every successful build or reload
// re-derives the view from the fresh f32 weights, so a checkpoint roll
// re-packs f16 weights and re-quantizes int8 weights atomically with
// the swap. The default ("" or "f32") serves the back half directly
// and is bit-identical to pre-precision-knob behavior.
type modelCache struct {
	mu        sync.Mutex
	name      string
	build     func() (*nn.Sequential, error)
	dir       string
	precision string

	back  *nn.Sequential
	infer nn.Layer // serving view of back under precision
	gen   uint32

	hits, misses int64

	reloadFails int // consecutive reload failures (breaker input)
	probeIn     int // ensure calls until the open breaker lets a probe through
}

// ensure returns the freshest model available that satisfies wantGen
// (0 = whatever is warm), loading from the checkpoint directory when
// wantGen is ahead of the cache. It never fails on a generation
// mismatch — it returns the generation actually loaded and the caller
// compares; per-request rejection is the batcher's job, because one
// batch can mix satisfied and mismatched requests. It fails only when
// there is no model at all (BuildBack missing or erroring).
func (c *modelCache) ensure(wantGen uint32) (nn.Layer, uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.back != nil && wantGen <= c.gen {
		c.hits++
		return c.infer, c.gen, nil
	}
	c.misses++
	if c.back == nil {
		if c.build == nil {
			return nil, 0, fmt.Errorf("%w: tenant %q has no BuildBack for inference", ErrConfig, c.name)
		}
		b, err := c.build()
		if err != nil {
			return nil, 0, fmt.Errorf("serve: tenant %q: building back half: %w", c.name, err)
		}
		c.back = b
		c.infer = servingView(b, c.precision)
		c.gen = 0
	}
	if c.dir != "" && wantGen > c.gen {
		c.reload(wantGen)
	}
	return c.infer, c.gen, nil
}

// servingView derives the inference view of a freshly built or reloaded
// back half under the tenant's precision setting. The back half itself
// stays in f32 — reduced-precision views are snapshots layered on top,
// rebuilt on every swap.
func servingView(back *nn.Sequential, precision string) nn.Layer {
	switch precision {
	case "f16":
		nn.EnableF16Weights(back)
		return back
	case "int8":
		return nn.NewQuantizedInference(back)
	default: // "" or "f32"
		return back
	}
}

// reload attempts to roll the cache forward from disk, honoring the
// breaker. Failures never propagate — the tenant degrades to the warm
// model and pinned requests are rejected per-request by the batcher.
// Caller holds c.mu.
func (c *modelCache) reload(wantGen uint32) {
	if c.reloadFails >= breakerTripAfter {
		if c.probeIn > 0 {
			c.probeIn--
			return // breaker open: serve warm, skip the disk
		}
		c.probeIn = breakerProbeEvery // this call is the probe
	}
	var fresh *nn.Sequential
	snap, err := core.LoadLatestSnapshot(c.dir, core.RoleServer, 0)
	if err == nil && uint32(snap.NextRound) <= c.gen {
		// Healthy disk with nothing newer: the pin is simply ahead of
		// training, which the caller surfaces as per-request
		// mismatches. Not a reload failure.
		c.reloadFails, c.probeIn = 0, 0
		return
	}
	if err == nil {
		if c.build == nil {
			return // nothing to restore into atomically; keep the warm model
		}
		fresh, err = c.build()
		if err == nil {
			err = core.RestoreServerModel(fresh, snap)
		}
	}
	if err != nil {
		// Corrupt, missing or mismatched generation: count toward the
		// breaker and keep serving the warm model untouched.
		c.reloadFails++
		if c.reloadFails == breakerTripAfter {
			c.probeIn = breakerProbeEvery
		}
		return
	}
	c.back = fresh
	c.infer = servingView(fresh, c.precision)
	c.gen = uint32(snap.NextRound)
	c.reloadFails = 0
	c.probeIn = 0
}

// cacheStats reports hit/miss counters (a miss is any ensure that had
// to build or check disk, whether or not a newer generation existed).
func (c *modelCache) cacheStats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// state reports the served generation and whether the reload breaker
// is open — the health probe's view of the cache.
func (c *modelCache) state() (gen uint32, breakerOpen bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen, c.reloadFails >= breakerTripAfter
}
