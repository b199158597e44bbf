package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitPending polls until the gate is parked waiting for a grant.
func waitPending(t *testing.T, cs *computeScheduler, g *computeGate) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		cs.mu.Lock()
		p := g.pending
		cs.mu.Unlock()
		if p {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("gate never went pending")
}

// With one slot held and two gates queued, releases must grant in ring
// order past the cursor: b (registered first among the waiters), then
// c — round-robin, not lock-acquisition luck.
func TestSchedulerGrantsInRingOrder(t *testing.T) {
	cs := newComputeScheduler(1)
	a := cs.register("a")
	b := cs.register("b")
	c := cs.register("c")

	releaseA := a.Acquire()

	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := b.Acquire()
		order <- "b"
		r()
	}()
	waitPending(t, cs, b)
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := c.Acquire()
		order <- "c"
		r()
	}()
	waitPending(t, cs, c)

	releaseA()
	wg.Wait()
	if first, second := <-order, <-order; first != "b" || second != "c" {
		t.Fatalf("grant order %s, %s; want b, c", first, second)
	}
	if _, waited := b.stats(); waited != 1 {
		t.Fatalf("b waited %d times, want 1", waited)
	}
	if acquired, _ := a.stats(); acquired != 1 {
		t.Fatalf("a acquired %d times, want 1", acquired)
	}
}

// The non-blocking take must never jump a waiter: it fails while a gate
// is pending (and while the slot that gate was granted is held), leaves
// ring-order grants alone, and succeeds only on a banked slot. Only a
// success counts, and only in acquired.
func TestSchedulerTryAcquireNeverJumpsWaiters(t *testing.T) {
	cs := newComputeScheduler(1)
	a := cs.register("a")
	b := cs.register("b")
	c := cs.register("c")
	d := cs.register("d")

	releaseA, ok := a.tryAcquire()
	if !ok {
		t.Fatal("tryAcquire refused a banked slot")
	}
	order := make(chan string, 2)
	proceed := make(chan struct{})
	var wg sync.WaitGroup
	for _, g := range []*computeGate{b, c} {
		wg.Add(1)
		go func(g *computeGate) {
			defer wg.Done()
			r := g.Acquire()
			order <- g.name
			<-proceed
			r()
		}(g)
		waitPending(t, cs, g)
	}
	if _, ok := d.tryAcquire(); ok {
		t.Fatal("tryAcquire took a slot while gates were pending")
	}
	releaseA()
	if first := <-order; first != "b" {
		t.Fatalf("first grant went to %s, want b", first)
	}
	if _, ok := d.tryAcquire(); ok {
		t.Fatal("tryAcquire took a slot while c was pending")
	}
	proceed <- struct{}{} // b releases: the slot goes to c, not to the bank
	if second := <-order; second != "c" {
		t.Fatalf("second grant went to %s, want c", second)
	}
	if _, ok := d.tryAcquire(); ok {
		t.Fatal("tryAcquire took the slot c holds")
	}
	proceed <- struct{}{}
	wg.Wait()

	releaseD, ok := d.tryAcquire()
	if !ok {
		t.Fatal("tryAcquire refused the slot banked after the last release")
	}
	releaseD()
	for _, tc := range []struct {
		g                *computeGate
		acquired, waited int64
	}{{a, 1, 0}, {b, 1, 1}, {c, 1, 1}, {d, 1, 0}} {
		if acquired, waited := tc.g.stats(); acquired != tc.acquired || waited != tc.waited {
			t.Fatalf("gate %s acquired %d waited %d, want %d and %d", tc.g.name, acquired, waited, tc.acquired, tc.waited)
		}
	}
}

// The slot budget must be a hard bound on concurrent holders, and
// under sustained contention every gate must make progress (the
// starvation-freedom round-robin buys).
func TestSchedulerBoundsConcurrencyAndStarvesNobody(t *testing.T) {
	const slots, gates, rounds = 2, 5, 50
	cs := newComputeScheduler(slots)
	var inside, peak atomic.Int64
	var wg sync.WaitGroup
	done := make([]int64, gates)
	for i := 0; i < gates; i++ {
		g := cs.register("g")
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				release := g.Acquire()
				n := inside.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				inside.Add(-1)
				release()
				done[i]++
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > slots {
		t.Fatalf("%d concurrent holders, budget %d", p, slots)
	}
	for i, n := range done {
		if n != rounds {
			t.Fatalf("gate %d finished %d/%d rounds", i, n, rounds)
		}
	}
}

// Unregistering a gate mid-ring must keep the cursor valid and leave
// the remaining gates schedulable.
func TestSchedulerUnregisterKeepsRingValid(t *testing.T) {
	cs := newComputeScheduler(1)
	a := cs.register("a")
	b := cs.register("b")
	c := cs.register("c")

	r := a.Acquire()
	r()
	cs.unregister(b)

	// Both survivors still cycle through the slot.
	for i := 0; i < 3; i++ {
		ra := a.Acquire()
		ra()
		rc := c.Acquire()
		rc()
	}
	cs.unregister(a)
	cs.unregister(c)
	cs.unregister(c) // double unregister is a no-op
	if len(cs.ring) != 0 || cs.cursor != 0 {
		t.Fatalf("ring %d entries, cursor %d after full unregister", len(cs.ring), cs.cursor)
	}
}
