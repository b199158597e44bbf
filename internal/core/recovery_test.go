package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"medsplit/internal/dataset"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/transport"
	"medsplit/internal/transport/testutil"
	"medsplit/internal/wire"
)

// severConn kills the link from the platform side: when the trigger
// matches an outbound message, the underlying pipe closes (so the
// server's pending receive dies too) and the send errors — a WAN drop
// as both ends see it.
type severConn struct {
	transport.Conn
	trigger func(*wire.Message) bool
	fired   bool
}

func (c *severConn) Send(m *wire.Message) error {
	if !c.fired && c.trigger(m) {
		c.fired = true
		c.Conn.Close()
		return fmt.Errorf("recovery test: link severed on %s r%d", m.Type, m.Round)
	}
	return c.Conn.Send(m)
}

// swallowConn kills the link from the server side while pretending the
// send succeeded: the message is dropped and the pipe closed. This is
// the TCP failure mode where a cut gradient dies in a kernel buffer —
// the server believes the round completed, the platform never saw it.
type swallowConn struct {
	transport.Conn
	trigger func(*wire.Message) bool
	fired   bool
}

func (c *swallowConn) Send(m *wire.Message) error {
	if !c.fired && c.trigger(m) {
		c.fired = true
		c.Conn.Close()
		return nil // swallowed: reported delivered, never arrives
	}
	return c.Conn.Send(m)
}

// recoveryOpts configures one manual recovery session.
type recoveryOpts struct {
	rounds      int
	policy      RejoinPolicy
	recovery    bool // attach a RecoveryConfig + Redial at all
	l1SyncEvery int
	schedule    nn.Schedule
	labelShare  bool // the two-message exchange: labels up, loss on the server
	// wrapServer / wrapPlatform interpose on the victim's two pipe ends.
	wrapServer   func(transport.Conn, *RejoinBroker) transport.Conn
	wrapPlatform func(transport.Conn) transport.Conn
	// redialGate, when non-nil, blocks the victim's first redial until
	// closed (for deterministic ProceedWithout adoption timing).
	redialGate chan struct{}
	trace      TraceFunc
}

const recoveryVictim = 1

// recoveryRun executes a 2-platform session with manual wiring and
// returns the final parameters (fronts then back) and per-platform
// stats. Fixed seeds: two runs with equal opts are bit-identical.
func recoveryRun(t *testing.T, o recoveryOpts) ([][]*nn.Param, []*PlatformStats) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	const K = 2
	train, _ := testData(t, 4, 240, 60, 171)
	flat := flatten(train)
	in := flat.X.Dim(1)
	fronts, back := buildFronts(t, 711, K, in, 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(172))

	broker := NewRejoinBroker()
	defer broker.Close()
	scfg := ServerConfig{
		Back: back, Opt: &nn.SGD{LR: 0.05}, Platforms: K, Rounds: o.rounds,
		L1SyncEvery: o.l1SyncEvery, LRSchedule: o.schedule, Trace: o.trace,
		LabelSharing: o.labelShare, Loss: nn.SoftmaxCrossEntropy{},
	}
	if o.recovery {
		scfg.Recovery = &RecoveryConfig{Policy: o.policy, Window: 30 * time.Second, Broker: broker}
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}

	serverConns := make([]transport.Conn, K)
	platformConns := make([]transport.Conn, K)
	platforms := make([]*Platform, K)
	for k := 0; k < K; k++ {
		sEnd, cEnd := transport.Pipe()
		if k == recoveryVictim {
			if o.wrapServer != nil {
				sEnd = o.wrapServer(sEnd, broker)
			}
			if o.wrapPlatform != nil {
				cEnd = o.wrapPlatform(cEnd)
			}
		}
		serverConns[k] = sEnd
		platformConns[k] = cEnd
		pc := PlatformConfig{
			ID: k, Front: fronts[k], Opt: &nn.SGD{LR: 0.05}, Loss: nn.SoftmaxCrossEntropy{},
			Shard: flat.Subset(shards[k]), Batch: 8, Rounds: o.rounds,
			L1SyncEvery: o.l1SyncEvery, Seed: uint64(300 + k), LabelSharing: o.labelShare,
		}
		if o.recovery && k == recoveryVictim {
			gate := o.redialGate
			pc.RejoinWindow = 30 * time.Second
			pc.Redial = func() (transport.Conn, error) {
				if gate != nil {
					<-gate
				}
				s2, c2 := transport.Pipe()
				go broker.Offer(s2)
				return c2, nil
			}
		}
		p, err := NewPlatform(pc)
		if err != nil {
			t.Fatal(err)
		}
		platforms[k] = p
	}

	stats := make([]*PlatformStats, K)
	errs := make([]error, K+1)
	var wg sync.WaitGroup
	wg.Add(K + 1)
	go func() {
		defer wg.Done()
		if err := srv.Serve(serverConns); err != nil {
			errs[0] = fmt.Errorf("server: %w", err)
			for _, c := range serverConns {
				c.Close()
			}
		}
	}()
	for k := 0; k < K; k++ {
		k := k
		go func() {
			defer wg.Done()
			st, err := platforms[k].Run(platformConns[k])
			if err != nil {
				errs[k+1] = fmt.Errorf("platform %d: %w", k, err)
				platformConns[k].Close()
				return
			}
			stats[k] = st
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	params := make([][]*nn.Param, 0, K+1)
	for k := 0; k < K; k++ {
		params = append(params, fronts[k].Params())
	}
	return append(params, back.Params()), stats
}

// severOn builds a platform-side wrapper killing the link on the given
// outbound message of the given round.
func severOn(msg wire.MsgType, round int) func(transport.Conn) transport.Conn {
	return func(c transport.Conn) transport.Conn {
		return &severConn{Conn: c, trigger: func(m *wire.Message) bool {
			return m.Type == msg && int(m.Round) == round
		}}
	}
}

// Under WaitForRejoin, a platform killed mid-round — at every wire
// position a platform-side drop can occur — rejoins and the session
// finishes with weights bit-identical to an undisturbed run.
func TestWaitForRejoinBitIdentical(t *testing.T) {
	const rounds = 10
	baseline, _ := recoveryRun(t, recoveryOpts{rounds: rounds})

	cases := []struct {
		name string
		wrap func(transport.Conn) transport.Conn
	}{
		{"drop sending activations", severOn(wire.MsgActivations, 5)},
		{"drop sending loss gradients", severOn(wire.MsgLossGrad, 5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params, stats := recoveryRun(t, recoveryOpts{
				rounds: rounds, policy: WaitForRejoin, recovery: true,
				wrapPlatform: tc.wrap,
			})
			assertParamsBitIdentical(t, tc.name, baseline, params)
			if len(stats[recoveryVictim].Rounds) != rounds {
				t.Fatalf("victim trained %d rounds, want %d", len(stats[recoveryVictim].Rounds), rounds)
			}
		})
	}
}

// The stale-cut-gradient replay: the server believes it delivered the
// round's cut gradient (TCP buffered it) and moves on; the platform
// never got it. On rejoin the server replays the cached payload, the
// platform applies its missed step, and training stays bit-identical.
func TestWaitForRejoinReplaysSwallowedCutGrad(t *testing.T) {
	const rounds = 10
	baseline, _ := recoveryRun(t, recoveryOpts{rounds: rounds})
	params, stats := recoveryRun(t, recoveryOpts{
		rounds: rounds, policy: WaitForRejoin, recovery: true,
		wrapServer: func(c transport.Conn, _ *RejoinBroker) transport.Conn {
			return &swallowConn{Conn: c, trigger: func(m *wire.Message) bool {
				return m.Type == wire.MsgCutGrad && m.Round == 5
			}}
		},
	})
	assertParamsBitIdentical(t, "swallowed cut-grad replay", baseline, params)
	if len(stats[recoveryVictim].Rounds) != rounds {
		t.Fatalf("victim trained %d rounds, want %d", len(stats[recoveryVictim].Rounds), rounds)
	}
}

// Under ProceedWithout, the job completes without the dropped
// platform, it rejoins at a later round boundary, and the final
// weights are a deterministic function of the kill point: two
// identical runs agree bit for bit.
func TestProceedWithoutDeterministicCompletion(t *testing.T) {
	const rounds = 12
	a, astats := proceedRunDeterministic(t, rounds)
	b, bstats := proceedRunDeterministic(t, rounds)
	assertParamsBitIdentical(t, "proceed-without repeat", a, b)

	// The healthy platform trained every round.
	if len(astats[0].Rounds) != rounds {
		t.Fatalf("healthy platform trained %d rounds, want %d", len(astats[0].Rounds), rounds)
	}
	// The victim lost rounds 5..7 (dropped mid-5, adopted at 8).
	want := rounds - 3
	if len(astats[recoveryVictim].Rounds) != want {
		t.Fatalf("victim trained %d rounds, want %d", len(astats[recoveryVictim].Rounds), want)
	}
	for _, rs := range astats[recoveryVictim].Rounds {
		if rs.Round >= 5 && rs.Round <= 7 {
			t.Fatalf("victim reports round %d, which it was dropped for", rs.Round)
		}
	}
	if len(bstats[recoveryVictim].Rounds) != want {
		t.Fatalf("second run victim trained %d rounds, want %d", len(bstats[recoveryVictim].Rounds), want)
	}
}

// proceedRunDeterministic pins the adoption round: the victim drops at
// round 5, redials only once the server has begun round 7, and the
// healthy platform's server-side connection stalls the end of round 7
// until the rejoin offer is registered — so the server adopts the
// victim at round 8 in every run.
func proceedRunDeterministic(t *testing.T, rounds int) ([][]*nn.Param, []*PlatformStats) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	const K = 2
	train, _ := testData(t, 4, 240, 60, 171)
	flat := flatten(train)
	in := flat.X.Dim(1)
	fronts, back := buildFronts(t, 711, K, in, 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(172))

	broker := NewRejoinBroker()
	defer broker.Close()

	gate := make(chan struct{})
	var gateOnce sync.Once
	srv, err := NewServer(ServerConfig{
		Back: back, Opt: &nn.SGD{LR: 0.05}, Platforms: K, Rounds: rounds,
		L1SyncEvery: 4,
		Recovery:    &RecoveryConfig{Policy: ProceedWithout, Window: 30 * time.Second, Broker: broker},
		Trace: func(e TraceEvent) {
			if e.Party == "server" && e.Dir == "recv" && e.Type == wire.MsgActivations && e.Round == 7 {
				gateOnce.Do(func() { close(gate) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	offerPending := func() bool {
		broker.mu.Lock()
		defer broker.mu.Unlock()
		return len(broker.offers[recoveryVictim]) > 0
	}

	serverConns := make([]transport.Conn, K)
	platformConns := make([]transport.Conn, K)
	platforms := make([]*Platform, K)
	for k := 0; k < K; k++ {
		sEnd, cEnd := transport.Pipe()
		if k == 0 {
			// Barrier on the healthy platform's round-7 cut gradient —
			// the last wire op before the round-8 boundary where the
			// victim is adopted.
			sEnd = &barrierConn{Conn: sEnd, ready: offerPending, trigger: func(m *wire.Message) bool {
				return m.Type == wire.MsgCutGrad && m.Round == 7
			}}
		}
		if k == recoveryVictim {
			cEnd = severOn(wire.MsgLossGrad, 5)(cEnd)
		}
		serverConns[k] = sEnd
		platformConns[k] = cEnd
		pc := PlatformConfig{
			ID: k, Front: fronts[k], Opt: &nn.SGD{LR: 0.05}, Loss: nn.SoftmaxCrossEntropy{},
			Shard: flat.Subset(shards[k]), Batch: 8, Rounds: rounds,
			L1SyncEvery: 4, Seed: uint64(300 + k),
		}
		if k == recoveryVictim {
			pc.RejoinWindow = 30 * time.Second
			pc.Redial = func() (transport.Conn, error) {
				<-gate
				s2, c2 := transport.Pipe()
				go broker.Offer(s2)
				return c2, nil
			}
		}
		p, err := NewPlatform(pc)
		if err != nil {
			t.Fatal(err)
		}
		platforms[k] = p
	}

	stats := make([]*PlatformStats, K)
	errs := make([]error, K+1)
	var wg sync.WaitGroup
	wg.Add(K + 1)
	go func() {
		defer wg.Done()
		if err := srv.Serve(serverConns); err != nil {
			errs[0] = fmt.Errorf("server: %w", err)
			for _, c := range serverConns {
				c.Close()
			}
		}
	}()
	for k := 0; k < K; k++ {
		k := k
		go func() {
			defer wg.Done()
			st, err := platforms[k].Run(platformConns[k])
			if err != nil {
				errs[k+1] = fmt.Errorf("platform %d: %w", k, err)
				platformConns[k].Close()
				return
			}
			stats[k] = st
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	params := make([][]*nn.Param, 0, K+1)
	for k := 0; k < K; k++ {
		params = append(params, fronts[k].Params())
	}
	return append(params, back.Params()), stats
}

// barrierConn delays one outbound message until ready() holds.
type barrierConn struct {
	transport.Conn
	trigger func(*wire.Message) bool
	ready   func() bool
	fired   bool
}

func (c *barrierConn) Send(m *wire.Message) error {
	if !c.fired && c.trigger(m) {
		c.fired = true
		for !c.ready() {
			time.Sleep(time.Millisecond)
		}
	}
	return c.Conn.Send(m)
}

// A platform that never rejoins fails the job under WaitForRejoin once
// the window expires.
func TestWaitForRejoinWindowExpires(t *testing.T) {
	const K = 1
	train, _ := testData(t, 2, 32, 8, 173)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 721, flat.X.Dim(1), 2)
	broker := NewRejoinBroker()
	defer broker.Close()
	srv := defaultServer(t, back, K, 4, func(c *ServerConfig) {
		c.Recovery = &RecoveryConfig{Policy: WaitForRejoin, Window: 50 * time.Millisecond, Broker: broker}
	})
	plat := defaultPlatform(t, 0, front, flat, 4, nil) // no Redial: it will not come back

	sEnd, cEnd := transport.Pipe()
	cKill := severOn(wire.MsgLossGrad, 1)(cEnd)
	errCh := make(chan error, 2)
	go func() { errCh <- srv.Serve([]transport.Conn{sEnd}) }()
	go func() {
		_, err := plat.Run(cKill)
		errCh <- err
	}()
	sawServerTimeout := false
	for i := 0; i < 2; i++ {
		err := <-errCh
		if err != nil && !sawServerTimeout {
			sawServerTimeout = err != nil
		}
		// Unblock the other party.
		sEnd.Close()
		cEnd.Close()
	}
	if !sawServerTimeout {
		t.Fatal("no party surfaced the expired rejoin window")
	}
}

// Broker mechanics: offers route by platform, the freshest wins, and
// non-rejoin openings are rejected.
func TestRejoinBroker(t *testing.T) {
	b := NewRejoinBroker()
	defer b.Close()

	if o := b.take(0); o != nil {
		t.Fatal("empty broker produced an offer")
	}
	if o := b.await(0, 10*time.Millisecond); o != nil {
		t.Fatal("await on an empty broker produced an offer")
	}

	offer := func(platform int, round int) {
		s, c := transport.Pipe()
		go func() {
			_ = c.Send(&wire.Message{
				Type: wire.MsgRejoin, Platform: uint32(platform), Round: uint32(round),
				Payload: wire.EncodeText(rejoinMeta(round, 0)),
			})
		}()
		if err := b.Offer(s); err != nil {
			t.Errorf("offer: %v", err)
		}
	}
	offer(2, 4)
	offer(2, 5) // retried: fresher
	o := b.take(2)
	if o == nil || int(o.rejoin.Round) != 5 {
		t.Fatalf("take returned %+v, want the freshest offer (round 5)", o)
	}
	if b.take(2) != nil {
		t.Fatal("stale offers survived take")
	}

	// Wrong opening message.
	s, c := transport.Pipe()
	go func() { _ = c.Send(&wire.Message{Type: wire.MsgHello}) }()
	if err := b.Offer(s); err == nil {
		t.Fatal("broker accepted a non-rejoin opening")
	}
}

// Recovery configuration is sequential-only and must be complete.
func TestRecoveryConfigValidation(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 174)
	flat := flatten(train)
	_, back := buildSplitMLP(t, 731, flat.X.Dim(1), 2)
	broker := NewRejoinBroker()
	defer broker.Close()
	ok := &RecoveryConfig{Policy: WaitForRejoin, Window: time.Second, Broker: broker}

	mk := func(mut func(*ServerConfig)) error {
		cfg := ServerConfig{Back: back, Opt: &nn.SGD{}, Platforms: 1, Rounds: 1, Recovery: ok}
		if mut != nil {
			mut(&cfg)
		}
		_, err := NewServer(cfg)
		return err
	}
	if err := mk(nil); err != nil {
		t.Fatalf("valid recovery config rejected: %v", err)
	}
	if err := mk(func(c *ServerConfig) { c.Mode = RoundModeConcat }); err == nil {
		t.Fatal("recovery with concat mode accepted")
	}
	if err := mk(func(c *ServerConfig) { c.Recovery = &RecoveryConfig{Policy: WaitForRejoin, Window: time.Second} }); err == nil {
		t.Fatal("recovery without a broker accepted")
	}
	if err := mk(func(c *ServerConfig) {
		c.Recovery = &RecoveryConfig{Policy: RejoinPolicy(9), Window: time.Second, Broker: broker}
	}); err == nil {
		t.Fatal("unknown rejoin policy accepted")
	}
	if err := mk(func(c *ServerConfig) { c.Recovery = &RecoveryConfig{Policy: ProceedWithout, Broker: broker} }); err == nil {
		t.Fatal("recovery without a window accepted")
	}

	front, _ := buildSplitMLP(t, 731, flat.X.Dim(1), 2)
	pcfg := PlatformConfig{
		ID: 0, Front: front, Opt: &nn.SGD{}, Loss: nn.SoftmaxCrossEntropy{},
		Shard: flat, Batch: 4, Rounds: 1,
		Redial: func() (transport.Conn, error) { return nil, nil },
	}
	if _, err := NewPlatform(pcfg); err == nil {
		t.Fatal("Redial without RejoinWindow accepted")
	}
}

// A rejoin position outside the label mode's train table is refused on
// both sides: the server will not resume a label-sharing exchange at
// the logits, and a label-sharing platform will not accept an ack that
// sends it there.
func TestRejoinRefusesPositionsOutsideTable(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 175)
	flat := flatten(train)
	front, back := buildSplitMLP(t, 741, flat.X.Dim(1), 2)
	share := func(c *ServerConfig) {
		c.LabelSharing = true
		c.Loss = nn.SoftmaxCrossEntropy{}
	}
	srv := defaultServer(t, back, 1, 6, share)
	sEnd, cEnd := transport.Pipe()
	defer cEnd.Close()
	go func() { // drain, so a wrongly accepted rejoin's ack cannot block
		for {
			if _, err := cEnd.Recv(); err != nil {
				return
			}
		}
	}()
	offer := &rejoinOffer{conn: sEnd, rejoin: &wire.Message{
		Type: wire.MsgRejoin, Round: 3, Payload: wire.EncodeText(rejoinMeta(3, posLogits)),
	}}
	if _, err := srv.reconcile(offer, 0, 3, posCutGrad, nil, 0, true); !errors.Is(err, ErrProtocol) {
		t.Fatalf("server reconciled a label-sharing rejoin at the logits: %v", err)
	}

	plat := defaultPlatform(t, 0, front, flat, 6, func(c *PlatformConfig) {
		c.LabelSharing = true
		c.RejoinWindow = 30 * time.Second
		c.Redial = func() (transport.Conn, error) {
			s2, c2 := transport.Pipe()
			go func() {
				defer s2.Close()
				if _, err := s2.Recv(); err != nil {
					return
				}
				_ = s2.Send(&wire.Message{Type: wire.MsgRejoinAck, Round: 3, Payload: wire.EncodeText(ackMeta(3, posLogits))})
			}()
			return c2, nil
		}
	})
	old, peer := transport.Pipe()
	defer peer.Close()
	plat.conn = transport.NewReconnectable(old)
	defer plat.conn.Close()
	if _, err := plat.maybeRejoin(3, posCutGrad, errors.New("link down")); !errors.Is(err, ErrProtocol) {
		t.Fatalf("label-sharing platform accepted an ack at the logits: %v", err)
	}
}
