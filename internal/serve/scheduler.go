package serve

import "sync"

// computeScheduler shares a fixed budget of compute slots across every
// training session and inference batcher in the process. It bounds how
// many sessions run back-half math at once across the whole process —
// and hands freed slots out round-robin so a hot tenant cannot starve a
// quiet one.
//
// Each session (or batcher) registers once and receives a gate that
// plugs into core.ServerConfig.Compute. A gate's Acquire and tryAcquire
// are called from one goroutine: a session's compute loop, or a
// tenant's batcher, which takes slots on behalf of its compute lanes
// and lets each lane release its own. So a batcher's gate may hold
// several slots at once, one per busy lane, but never has more than one
// acquisition pending — which is what makes cursor round-robin over the
// registration ring an exact fairness policy: after a grant the cursor
// moves past the granted gate, so every waiter is reached within one
// lap of the ring.
//
// A slot that nobody is waiting for is banked, and every gate's wake
// channel fires: a batcher holding a batch for want of a slot retries
// at once instead of sleeping out its flush timer beside a free slot.
type computeScheduler struct {
	mu     sync.Mutex
	free   int            // slots not currently held
	ring   []*computeGate // registered gates, registration order
	cursor int            // ring index where the next release scan starts
}

func newComputeScheduler(slots int) *computeScheduler {
	if slots <= 0 {
		slots = 1
	}
	return &computeScheduler{free: slots}
}

// register adds a party to the scheduling ring and returns its gate.
func (cs *computeScheduler) register(name string) *computeGate {
	g := &computeGate{sched: cs, name: name, grant: make(chan struct{}, 1), wake: make(chan struct{}, 1)}
	cs.mu.Lock()
	cs.ring = append(cs.ring, g)
	cs.mu.Unlock()
	return g
}

// unregister removes a gate from the ring. The gate's owner must have
// stopped computing: a pending acquisition on an unregistered gate
// would strand, so sessions unregister only after Serve has returned.
func (cs *computeScheduler) unregister(g *computeGate) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for i, x := range cs.ring {
		if x != g {
			continue
		}
		cs.ring = append(cs.ring[:i], cs.ring[i+1:]...)
		if cs.cursor > i {
			cs.cursor--
		}
		if len(cs.ring) > 0 {
			cs.cursor %= len(cs.ring)
		} else {
			cs.cursor = 0
		}
		return
	}
}

// computeGate is one party's handle on the shared slot budget. It
// implements core.ComputeGate.
type computeGate struct {
	sched *computeScheduler
	name  string
	// grant carries a freed slot to this gate; capacity 1 so a releaser
	// never blocks handing the slot over.
	grant   chan struct{}
	pending bool // waiting for a grant (guarded by sched.mu)
	// wake fires (capacity 1, never blocking the sender) when a slot is
	// banked, and when one of a batcher's lanes finishes. Sessions
	// never read it.
	wake chan struct{}

	// Scheduling counters (guarded by sched.mu): total acquisitions and
	// how many of them had to wait. The fairness tests read these.
	acquired int64
	waited   int64
}

// Acquire takes a compute slot, blocking until one is free, and
// returns the matching release.
func (g *computeGate) Acquire() (release func()) {
	cs := g.sched
	cs.mu.Lock()
	g.acquired++
	if cs.free > 0 {
		// Invariant: free > 0 implies nobody is pending — release only
		// banks a slot when the ring has no waiter — so taking the fast
		// path never jumps a queue.
		cs.free--
		cs.mu.Unlock()
		return g.release
	}
	g.pending = true
	g.waited++
	cs.mu.Unlock()
	<-g.grant
	return g.release
}

// tryAcquire takes a compute slot only if one is free right now, and
// never waits. By Acquire's invariant a free slot means nobody is
// pending, so a successful take never jumps a waiter. A success counts
// in acquired; a refusal counts nowhere.
func (g *computeGate) tryAcquire() (release func(), ok bool) {
	cs := g.sched
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.free == 0 {
		return nil, false
	}
	cs.free--
	g.acquired++
	return g.release, true
}

// release hands the slot to the next pending gate after the round-robin
// cursor, or banks it and wakes every gate when nobody is waiting.
func (g *computeGate) release() {
	cs := g.sched
	cs.mu.Lock()
	n := len(cs.ring)
	for i := 0; i < n; i++ {
		idx := (cs.cursor + i) % n
		cand := cs.ring[idx]
		if !cand.pending {
			continue
		}
		cand.pending = false
		cs.cursor = (idx + 1) % n
		cs.mu.Unlock()
		cand.grant <- struct{}{}
		return
	}
	cs.free++
	for _, g := range cs.ring {
		g.signal()
	}
	cs.mu.Unlock()
}

// signal fires the gate's wake channel unless a wake-up is already
// pending there.
func (g *computeGate) signal() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// stats reports the gate's acquisition counters.
func (g *computeGate) stats() (acquired, waited int64) {
	g.sched.mu.Lock()
	defer g.sched.mu.Unlock()
	return g.acquired, g.waited
}
