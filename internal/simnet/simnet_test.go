package simnet

import (
	"errors"
	"io"
	"testing"
	"time"

	"medsplit/internal/geonet"
	"medsplit/internal/transport"
	"medsplit/internal/transport/testutil"
	"medsplit/internal/wire"
)

func msg(t wire.MsgType, round int, payload int) *wire.Message {
	return &wire.Message{Type: t, Round: uint32(round), Payload: make([]byte, payload)}
}

// One message over a known link must be delivered at exactly
// serialization + latency, and the receiver's clock must advance to
// that instant.
func TestTransferSchedule(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	n := New(Options{})
	srv, plat := n.AddLink(0, geonet.Link{LatencyMs: 10, Mbps: 8})

	m := msg(wire.MsgActivations, 0, 980) // WireSize = 980 + 20 header = 1000 B
	if err := plat.Send(m); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recv(); err != nil {
		t.Fatal(err)
	}
	// 1000 B at 8 Mbps = 1 ms serialization, plus 10 ms latency.
	want := 11 * time.Millisecond
	if got := n.Elapsed(); got != want {
		t.Fatalf("elapsed %v, want %v", got, want)
	}
	if got := n.PlatformClock(0); got != 0 {
		t.Fatalf("sender clock advanced to %v on its own send", got)
	}
	srv.Close()
	plat.Close()
}

// Back-to-back messages serialize one after the other on the link
// (busy schedule), and delivery order is preserved even with jitter.
func TestSerializationQueueAndOrder(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	n := New(Options{Seed: 7, Jitter: 0.5})
	srv, plat := n.AddLink(0, geonet.Link{LatencyMs: 5, Mbps: 8})

	const count = 16
	for i := 0; i < count; i++ {
		if err := plat.Send(msg(wire.MsgActivations, i, 980)); err != nil {
			t.Fatal(err)
		}
	}
	var last time.Duration
	for i := 0; i < count; i++ {
		m, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if int(m.Round) != i {
			t.Fatalf("message %d arrived out of order (round %d)", i, m.Round)
		}
		if at := n.Elapsed(); at < last {
			t.Fatalf("delivery time went backwards: %v after %v", at, last)
		} else {
			last = at
		}
	}
	// All 16 KB serialized at 8 Mbps take at least 16 ms even though the
	// latency is only 5 ms: the busy schedule is real.
	if minTotal := 16 * time.Millisecond; last < minTotal {
		t.Fatalf("elapsed %v, want at least %v of serialization", last, minTotal)
	}
	srv.Close()
	plat.Close()
}

// The same seed must reproduce the exact transfer schedule; a
// different seed must not (with jitter enabled).
func TestJitterDeterminism(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	run := func(seed uint64) time.Duration {
		n := New(Options{Seed: seed, Jitter: 0.3})
		srv, plat := n.AddLink(0, geonet.Link{LatencyMs: 20, Mbps: 50})
		defer srv.Close()
		defer plat.Close()
		for i := 0; i < 8; i++ {
			if err := plat.Send(msg(wire.MsgActivations, i, 4000)); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		return n.Elapsed()
	}
	a, b, c := run(1), run(1), run(2)
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if a == c {
		t.Fatalf("different seeds produced identical schedules (%v)", a)
	}
}

// An ideal link (zero latency, unbounded bandwidth) moves no virtual
// time at all.
func TestIdealLinkZeroTime(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	n, pairs := Ideal(2, Options{})
	for _, p := range pairs {
		if err := p.Platform.Send(msg(wire.MsgActivations, 0, 1<<16)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Server.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.Elapsed(); got != 0 {
		t.Fatalf("ideal links accumulated %v of virtual time", got)
	}
	for _, p := range pairs {
		p.Server.Close()
		p.Platform.Close()
	}
}

// A scripted fault severs the link when the matching message is sent:
// the sender errors, the peer reads EOF, in-flight messages are lost,
// and later operations on both ends keep failing.
func TestFaultSeversLink(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	n := New(Options{Faults: []Fault{
		{Platform: 0, Round: 2, Type: wire.MsgLossGrad, Dir: DirUp},
	}})
	srv, plat := n.AddLink(0, geonet.Link{LatencyMs: 1, Mbps: 100})

	// Round 0/1 traffic passes, including a round-2 message of another
	// type and direction.
	for r := 0; r < 2; r++ {
		if err := plat.Send(msg(wire.MsgLossGrad, r, 64)); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Send(msg(wire.MsgLossGrad, 2, 64)); err != nil {
		t.Fatalf("down direction must not trigger an up fault: %v", err)
	}
	if err := plat.Send(msg(wire.MsgActivations, 2, 64)); err != nil {
		t.Fatalf("other type must not trigger: %v", err)
	}

	// The trigger: the in-flight activations above are lost with the
	// link.
	if err := plat.Send(msg(wire.MsgLossGrad, 2, 64)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("severing send returned %v, want io.ErrClosedPipe", err)
	}
	if _, err := srv.Recv(); err != io.EOF {
		t.Fatalf("peer recv returned %v, want io.EOF", err)
	}
	if _, err := plat.Recv(); err != io.EOF {
		t.Fatalf("platform recv on severed link returned %v, want io.EOF", err)
	}
	if err := srv.Send(msg(wire.MsgCutGrad, 2, 64)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("send on severed link returned %v, want io.ErrClosedPipe", err)
	}
	srv.Close()
	plat.Close()
}

// Swallow reports the triggering send as delivered while dropping it —
// the kernel-buffer failure mode the cut-grad replay recovers from.
func TestSwallowedSend(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	n := New(Options{Faults: []Fault{
		{Platform: 0, Round: 1, Type: wire.MsgCutGrad, Dir: DirDown, Swallow: true},
	}})
	srv, plat := n.AddLink(0, geonet.Link{LatencyMs: 1, Mbps: 100})
	if err := srv.Send(msg(wire.MsgCutGrad, 1, 64)); err != nil {
		t.Fatalf("swallowed send must report success, got %v", err)
	}
	if _, err := plat.Recv(); err != io.EOF {
		t.Fatalf("platform recv returned %v, want io.EOF (message swallowed)", err)
	}
	srv.Close()
	plat.Close()
}

// FaultKillServer models total server death: the triggering link and
// every other link sever at once, every link's redials fail for the
// FailDials budget, then all links come back — the window in which a
// warm follower promotes and platforms re-home to it.
func TestKillServerFault(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const platforms = 3
	n := New(Options{Faults: []Fault{
		{Platform: 1, Round: 3, Type: wire.MsgLossGrad, Dir: DirUp,
			Kind: FaultKillServer, FailDials: 2},
	}})
	srv := make([]transport.Conn, platforms)
	plat := make([]transport.Conn, platforms)
	for k := 0; k < platforms; k++ {
		srv[k], plat[k] = n.AddLink(k, geonet.Link{LatencyMs: 1, Mbps: 100})
	}
	// Pre-kill traffic flows on every link.
	for k := 0; k < platforms; k++ {
		if err := plat[k].Send(msg(wire.MsgActivations, 0, 64)); err != nil {
			t.Fatal(err)
		}
		if _, err := srv[k].Recv(); err != nil {
			t.Fatal(err)
		}
	}
	// The trigger, on platform 1's link only.
	if err := plat[1].Send(msg(wire.MsgLossGrad, 3, 64)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("triggering send returned %v, want io.ErrClosedPipe", err)
	}
	// Every link is now dead, not just the triggering one.
	for k := 0; k < platforms; k++ {
		if err := plat[k].Send(msg(wire.MsgActivations, 3, 64)); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("platform %d send after kill returned %v, want io.ErrClosedPipe", k, err)
		}
		if _, err := srv[k].Recv(); err != io.EOF {
			t.Fatalf("server recv for platform %d after kill returned %v, want io.EOF", k, err)
		}
	}
	// Every link's dials fail while the shared FailDials budget lasts...
	for i := 0; i < 2; i++ {
		for k := 0; k < platforms; k++ {
			if _, _, err := n.Redial(k); err == nil {
				t.Fatalf("platform %d redial %d succeeded inside the FailDials window", k, i)
			}
		}
	}
	// ...then every platform dials into a fresh working segment.
	for k := 0; k < platforms; k++ {
		s2, p2, err := n.Redial(k)
		if err != nil {
			t.Fatalf("platform %d redial after window: %v", k, err)
		}
		if err := p2.Send(msg(wire.MsgRejoin, 3, 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Recv(); err != nil {
			t.Fatal(err)
		}
		s2.Close()
		p2.Close()
	}
}

// A swallowed KillServer still takes the whole network down even
// though the triggering sender saw success.
func TestKillServerSwallowed(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	n := New(Options{Faults: []Fault{
		{Platform: 0, Round: 1, Type: wire.MsgCutGrad, Dir: DirDown,
			Kind: FaultKillServer, Swallow: true},
	}})
	srv0, plat0 := n.AddLink(0, geonet.Link{LatencyMs: 1, Mbps: 100})
	srv1, plat1 := n.AddLink(1, geonet.Link{LatencyMs: 1, Mbps: 100})
	if err := srv0.Send(msg(wire.MsgCutGrad, 1, 64)); err != nil {
		t.Fatalf("swallowed send must report success, got %v", err)
	}
	if _, err := plat0.Recv(); err != io.EOF {
		t.Fatalf("platform 0 recv returned %v, want io.EOF", err)
	}
	if err := plat1.Send(msg(wire.MsgActivations, 1, 64)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("platform 1 send returned %v, want io.ErrClosedPipe", err)
	}
	if _, err := srv1.Recv(); err != io.EOF {
		t.Fatalf("server recv for platform 1 returned %v, want io.EOF", err)
	}
	srv0.Close()
	plat0.Close()
	srv1.Close()
	plat1.Close()
}

// A dead server's messages that were already on the wire still arrive:
// the platform drains them and then reads EOF. What the platforms had
// queued for the server, and the message the server died sending, are
// lost.
func TestKillServerDrainsSentMessages(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	n := New(Options{Faults: []Fault{
		{Platform: 0, Round: 2, Type: wire.MsgCutGrad, Dir: DirDown, Kind: FaultKillServer},
	}})
	srv0, plat0 := n.AddLink(0, geonet.Link{LatencyMs: 1, Mbps: 100})
	srv1, plat1 := n.AddLink(1, geonet.Link{LatencyMs: 50, Mbps: 100})
	if err := srv1.Send(msg(wire.MsgModelPush, 1, 64)); err != nil {
		t.Fatal(err)
	}
	if err := plat1.Send(msg(wire.MsgActivations, 2, 64)); err != nil {
		t.Fatal(err)
	}
	if err := srv0.Send(msg(wire.MsgCutGrad, 2, 64)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("triggering send returned %v, want io.ErrClosedPipe", err)
	}
	m, err := plat1.Recv()
	if err != nil || m.Type != wire.MsgModelPush {
		t.Fatalf("platform 1 recv after kill returned %v, %v; want the in-flight model push", m, err)
	}
	if _, err := plat1.Recv(); err != io.EOF {
		t.Fatalf("platform 1 second recv returned %v, want io.EOF", err)
	}
	if _, err := srv1.Recv(); err != io.EOF {
		t.Fatalf("server recv for platform 1 returned %v, want io.EOF", err)
	}
	if _, err := plat0.Recv(); err != io.EOF {
		t.Fatalf("platform 0 recv returned %v, want io.EOF", err)
	}
	for _, c := range []transport.Conn{srv0, plat0, srv1, plat1} {
		c.Close()
	}
}

// Redial: fails deterministically while FailDials lasts, then yields a
// fresh working segment on the same clocks; the severed pair stays
// dead.
func TestRedialAfterFault(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	n := New(Options{Faults: []Fault{
		{Platform: 0, Round: 0, Type: wire.MsgLossGrad, FailDials: 2},
	}})
	srv, plat := n.AddLink(0, geonet.Link{LatencyMs: 2, Mbps: 100})
	if err := plat.Send(msg(wire.MsgLossGrad, 0, 64)); err == nil {
		t.Fatal("fault did not fire")
	}
	for i := 0; i < 2; i++ {
		if _, _, err := n.Redial(0); err == nil {
			t.Fatalf("redial %d succeeded inside the FailDials window", i)
		}
	}
	srv2, plat2, err := n.Redial(0)
	if err != nil {
		t.Fatalf("redial after FailDials: %v", err)
	}
	if err := plat2.Send(msg(wire.MsgRejoin, 0, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Recv(); err != nil {
		t.Fatal(err)
	}
	// The old endpoints stay dead.
	if err := plat.Send(msg(wire.MsgActivations, 0, 16)); err == nil {
		t.Fatal("severed endpoint accepted a send after redial")
	}
	if _, _, err := n.Redial(99); err == nil {
		t.Fatal("redial of an unknown link succeeded")
	}
	srv.Close()
	plat.Close()
	srv2.Close()
	plat2.Close()
}

// Redial must never deadlock against a Send in flight on the segment
// it replaces (the Send holds the segment lock while consulting the
// fault script under the link lock; Redial severs the old segment only
// after releasing the link lock). This hammers the two paths
// concurrently — under -race and with the GOMAXPROCS the CI race job
// uses, an ordering inversion here parks both goroutines and times the
// test out.
func TestRedialDuringSendDoesNotDeadlock(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	n := New(Options{Faults: []Fault{{Platform: 0, Round: 999}}}) // pending fault keeps takeFault scanning
	_, plat := n.AddLink(0, geonet.Link{LatencyMs: 1, Mbps: 100})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cur := plat
		// Fewer sends than the QueueCap: nobody drains, so a sender that
		// outlives the redial loop must not park on backpressure.
		for i := 0; i < 50; i++ {
			if err := cur.Send(msg(wire.MsgActivations, i, 64)); err != nil {
				// The segment was torn down under us: pick up the fresh one.
				_, fresh, rerr := n.Redial(0)
				if rerr == nil {
					cur = fresh
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, _, err := n.Redial(0); err != nil {
			t.Errorf("redial %d: %v", i, err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("send/redial interleaving deadlocked")
	}
}

// Close semantics mirror the pipe transport: own operations fail with
// ErrClosed, the peer drains delivered messages and then reads EOF.
func TestCloseSemantics(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	n := New(Options{})
	srv, plat := n.AddLink(0, geonet.Link{LatencyMs: 1, Mbps: 100})
	if err := plat.Send(msg(wire.MsgActivations, 0, 64)); err != nil {
		t.Fatal(err)
	}
	plat.Close()
	if _, err := plat.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("recv on closed endpoint: %v, want ErrClosed", err)
	}
	if err := plat.Send(msg(wire.MsgActivations, 1, 64)); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send on closed endpoint: %v, want ErrClosed", err)
	}
	// The queued message still drains before EOF.
	if m, err := srv.Recv(); err != nil || m.Type != wire.MsgActivations {
		t.Fatalf("drain after peer close: %v, %v", m, err)
	}
	if _, err := srv.Recv(); err != io.EOF {
		t.Fatalf("recv after drain: %v, want io.EOF", err)
	}
	if err := srv.Send(msg(wire.MsgCutGrad, 0, 64)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("send to closed peer: %v, want io.ErrClosedPipe", err)
	}
	srv.Close()
}

// QueueCap exerts backpressure: a sender parks once the peer stops
// draining and resumes when space frees.
func TestQueueCapBackpressure(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	n := New(Options{QueueCap: 2})
	srv, plat := n.AddLink(0, geonet.Link{})
	if err := plat.Send(msg(wire.MsgActivations, 0, 8)); err != nil {
		t.Fatal(err)
	}
	if err := plat.Send(msg(wire.MsgActivations, 1, 8)); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- plat.Send(msg(wire.MsgActivations, 2, 8)) }()
	select {
	case err := <-sent:
		t.Fatalf("third send completed past QueueCap=2 (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := srv.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("backpressured send failed after drain: %v", err)
	}
	srv.Close()
	plat.Close()

	// A peer blocked on backpressure must also wake on close.
	n2 := New(Options{QueueCap: 1})
	srv2, plat2 := n2.AddLink(0, geonet.Link{})
	if err := plat2.Send(msg(wire.MsgActivations, 0, 8)); err != nil {
		t.Fatal(err)
	}
	sent2 := make(chan error, 1)
	go func() { sent2 <- plat2.Send(msg(wire.MsgActivations, 1, 8)) }()
	time.Sleep(10 * time.Millisecond)
	srv2.Close()
	if err := <-sent2; err == nil {
		t.Fatal("backpressured send survived peer close")
	}
	plat2.Close()
}

// A lockstep request/response session over several links replays the
// exact same virtual timeline run after run — the determinism claim
// the README documents for the sequential modes.
func TestLockstepElapsedDeterministic(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	topo := geonet.DefaultHospitalTopology()
	regions := Regions(topo)

	run := func() time.Duration {
		n, pairs, err := FromTopology(topo, regions, Options{Seed: 42, Jitter: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, len(pairs))
		for k, p := range pairs {
			go func(k int, c transport.Conn) {
				for r := 0; r < 5; r++ {
					if err := c.Send(msg(wire.MsgActivations, r, 4096)); err != nil {
						done <- err
						return
					}
					if _, err := c.Recv(); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(k, p.Platform)
		}
		// A sequential server: platforms strictly in id order per round.
		for r := 0; r < 5; r++ {
			for _, p := range pairs {
				if _, err := p.Server.Recv(); err != nil {
					t.Fatal(err)
				}
				if err := p.Server.Send(msg(wire.MsgCutGrad, r, 2048)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for range pairs {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range pairs {
			p.Server.Close()
			p.Platform.Close()
		}
		return n.Elapsed()
	}
	a, b := run(), run()
	if a != b || a == 0 {
		t.Fatalf("lockstep timelines diverged: %v vs %v", a, b)
	}
}

// SyntheticClinics topologies are deterministic in the seed and wire
// straight into the network builder.
func TestSyntheticClinicsFeedNetwork(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	topoA, regA := geonet.SyntheticClinics(40, 9)
	topoB, regB := geonet.SyntheticClinics(40, 9)
	if len(regA) != 40 || len(regB) != 40 {
		t.Fatalf("regions: %d / %d, want 40", len(regA), len(regB))
	}
	for i := range regA {
		la, _ := topoA.Link(regA[i])
		lb, _ := topoB.Link(regB[i])
		if la != lb || regA[i] != regB[i] {
			t.Fatalf("clinic %d differs across equal seeds: %v vs %v", i, la, lb)
		}
	}
	n, pairs, err := FromTopology(topoA, regA, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 40 {
		t.Fatalf("%d pairs, want 40", len(pairs))
	}
	for _, p := range pairs {
		p.Server.Close()
		p.Platform.Close()
	}
	_ = n
}
