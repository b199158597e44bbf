package core

import (
	"sync"
	"testing"
	"time"

	"medsplit/internal/dataset"
	"medsplit/internal/geonet"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/simnet"
	"medsplit/internal/transport"
	"medsplit/internal/transport/testutil"
	"medsplit/internal/wire"
)

// connector builds the K connection pairs a session runs over.
type connector func(K int) (serverConns, platformConns []transport.Conn)

// pipeConnector is the in-process reference transport.
func pipeConnector(K int) ([]transport.Conn, []transport.Conn) {
	s := make([]transport.Conn, K)
	p := make([]transport.Conn, K)
	for k := 0; k < K; k++ {
		s[k], p[k] = transport.Pipe()
	}
	return s, p
}

// simConnector runs the session over a simulated WAN with the given
// per-link parameters (the same link for every platform).
func simConnector(link geonet.Link, opts simnet.Options) connector {
	return func(K int) ([]transport.Conn, []transport.Conn) {
		n := simnet.New(opts)
		s := make([]transport.Conn, K)
		p := make([]transport.Conn, K)
		for k := 0; k < K; k++ {
			s[k], p[k] = n.AddLink(k, link)
		}
		return s, p
	}
}

// splitRunOver executes a fixed-seed 2-platform MLP workload over
// caller-provided connections and returns the final parameters (fronts
// then back). All randomness is pinned, so two runs with the same
// arguments are bit-identical.
func splitRunOver(t *testing.T, mode RoundMode, rounds int, connect connector) [][]*nn.Param {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	const K = 2
	train, _ := testData(t, 4, 240, 60, 91)
	flat := flatten(train)
	in := flat.X.Dim(1)

	fronts, back := buildFronts(t, 311, K, in, 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(92))
	srv := defaultServer(t, back, K, rounds, func(c *ServerConfig) {
		c.Mode = mode
	})
	platforms := make([]*Platform, K)
	for k := 0; k < K; k++ {
		platforms[k] = defaultPlatform(t, k, fronts[k], flat.Subset(shards[k]), rounds, nil)
	}
	serverConns, platformConns := connect(K)
	if _, err := RunConnected(srv, platforms, serverConns, platformConns); err != nil {
		t.Fatal(err)
	}
	params := make([][]*nn.Param, 0, K+1)
	for k := 0; k < K; k++ {
		params = append(params, fronts[k].Params())
	}
	return append(params, back.Params())
}

// The acceptance differential: a full training run over the simulated
// WAN with ideal links is bit-identical to the same run over
// transport.Pipe, for both lockstep round modes — the simnet transport
// moves bytes without ever touching what is computed.
func TestSimnetZeroLatencyBitIdenticalToPipe(t *testing.T) {
	const rounds = 10
	cases := []struct {
		name string
		mode RoundMode
	}{
		{"sequential", RoundModeSequential},
		{"concat", RoundModeConcat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := splitRunOver(t, tc.mode, rounds, pipeConnector)
			sim := splitRunOver(t, tc.mode, rounds, simConnector(geonet.Link{}, simnet.Options{Seed: 5}))
			assertParamsBitIdentical(t, tc.name+" simnet-ideal vs pipe", ref, sim)
		})
	}
}

// Latency, bandwidth and jitter shift the virtual timeline but must
// never leak into training: a run over the 5-hospital WAN parameters
// stays bit-identical to the pipe reference.
func TestSimnetWANParametersDoNotAffectWeights(t *testing.T) {
	const rounds = 8
	ref := splitRunOver(t, RoundModeSequential, rounds, pipeConnector)
	sim := splitRunOver(t, RoundModeSequential, rounds,
		simConnector(geonet.Link{LatencyMs: 95, Mbps: 50}, simnet.Options{Seed: 9, Jitter: 0.4}))
	assertParamsBitIdentical(t, "simnet-wan vs pipe", ref, sim)
}

// simnetRecoveryRun executes the recoveryRun workload over a simulated
// WAN whose fault script drops the victim, with redial wired through
// Network.Redial and the rejoin broker.
func simnetRecoveryRun(t *testing.T, rounds int, policy RejoinPolicy, faults []simnet.Fault) ([][]*nn.Param, []*PlatformStats) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	const K = 2
	train, _ := testData(t, 4, 240, 60, 171)
	flat := flatten(train)
	in := flat.X.Dim(1)
	fronts, back := buildFronts(t, 711, K, in, 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(172))

	net := simnet.New(simnet.Options{Seed: 31, Jitter: 0.1, Faults: faults})
	link := geonet.Link{LatencyMs: 8, Mbps: 200}
	serverConns := make([]transport.Conn, K)
	platformConns := make([]transport.Conn, K)
	for k := 0; k < K; k++ {
		serverConns[k], platformConns[k] = net.AddLink(k, link)
	}

	broker := NewRejoinBroker()
	defer broker.Close()
	srv, err := NewServer(ServerConfig{
		Back: back, Opt: &nn.SGD{LR: 0.05}, Platforms: K, Rounds: rounds,
		Recovery: &RecoveryConfig{Policy: policy, Window: 30 * time.Second, Broker: broker},
	})
	if err != nil {
		t.Fatal(err)
	}
	platforms := make([]*Platform, K)
	for k := 0; k < K; k++ {
		pc := PlatformConfig{
			ID: k, Front: fronts[k], Opt: &nn.SGD{LR: 0.05}, Loss: nn.SoftmaxCrossEntropy{},
			Shard: flat.Subset(shards[k]), Batch: 8, Rounds: rounds,
			Seed:         uint64(300 + k),
			RejoinWindow: 30 * time.Second,
		}
		k := k
		pc.Redial = func() (transport.Conn, error) {
			sEnd, pEnd, derr := net.Redial(k)
			if derr != nil {
				return nil, derr
			}
			go broker.Offer(sEnd)
			return pEnd, nil
		}
		p, perr := NewPlatform(pc)
		if perr != nil {
			t.Fatal(perr)
		}
		platforms[k] = p
	}
	stats, err := RunConnected(srv, platforms, serverConns, platformConns)
	if err != nil {
		t.Fatal(err)
	}
	params := make([][]*nn.Param, 0, K+1)
	for k := 0; k < K; k++ {
		params = append(params, fronts[k].Params())
	}
	return append(params, back.Params()), stats
}

// WaitForRejoin over the simulated WAN: scripted drops at both
// platform-send positions, and the swallowed-cut-grad failure mode,
// all recover to weights bit-identical to the undisturbed pipe run.
func TestSimnetWaitForRejoinBitIdentical(t *testing.T) {
	const rounds = 10
	baseline, _ := recoveryRun(t, recoveryOpts{rounds: rounds})
	cases := []struct {
		name  string
		fault simnet.Fault
	}{
		{"drop uploading activations",
			simnet.Fault{Platform: recoveryVictim, Round: 5, Type: wire.MsgActivations, Dir: simnet.DirUp}},
		{"drop uploading loss gradients",
			simnet.Fault{Platform: recoveryVictim, Round: 5, Type: wire.MsgLossGrad, Dir: simnet.DirUp, FailDials: 3}},
		{"cut gradient swallowed by the link",
			simnet.Fault{Platform: recoveryVictim, Round: 5, Type: wire.MsgCutGrad, Dir: simnet.DirDown, Swallow: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params, stats := simnetRecoveryRun(t, rounds, WaitForRejoin, []simnet.Fault{tc.fault})
			assertParamsBitIdentical(t, tc.name, baseline, params)
			if got := len(stats[recoveryVictim].Rounds); got != rounds {
				t.Fatalf("victim trained %d rounds, want %d", got, rounds)
			}
		})
	}
}

// ProceedWithout over the simulated WAN, with the adoption round pinned
// the same way proceedRunDeterministic pins it over pipes: two runs
// must agree bit for bit and the victim must have skipped exactly the
// dropped rounds.
func TestSimnetProceedWithoutDeterministic(t *testing.T) {
	const rounds = 12
	a, astats := simnetProceedRun(t, rounds)
	b, _ := simnetProceedRun(t, rounds)
	assertParamsBitIdentical(t, "simnet proceed-without repeat", a, b)
	if len(astats[0].Rounds) != rounds {
		t.Fatalf("healthy platform trained %d rounds, want %d", len(astats[0].Rounds), rounds)
	}
	want := rounds - 3 // dropped mid-5, adopted at 8
	if len(astats[recoveryVictim].Rounds) != want {
		t.Fatalf("victim trained %d rounds, want %d", len(astats[recoveryVictim].Rounds), want)
	}
}

// simnetProceedRun mirrors proceedRunDeterministic over the simulated
// WAN: the victim's link drops at round 5 via the fault script, the
// redial gate opens once the server reaches round 7, and the healthy
// platform's server end stalls the round-7 boundary until the offer is
// registered — so adoption lands at round 8 every run.
func simnetProceedRun(t *testing.T, rounds int) ([][]*nn.Param, []*PlatformStats) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	const K = 2
	train, _ := testData(t, 4, 240, 60, 171)
	flat := flatten(train)
	in := flat.X.Dim(1)
	fronts, back := buildFronts(t, 711, K, in, 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(172))

	net := simnet.New(simnet.Options{Seed: 13, Faults: []simnet.Fault{
		{Platform: recoveryVictim, Round: 5, Type: wire.MsgLossGrad, Dir: simnet.DirUp},
	}})
	link := geonet.Link{LatencyMs: 3, Mbps: 500}

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
		sEnd, cEnd := net.AddLink(k, link)
		if k == 0 {
			sEnd = &barrierConn{Conn: sEnd, ready: offerPending, trigger: func(m *wire.Message) bool {
				return m.Type == wire.MsgCutGrad && m.Round == 7
			}}
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
				sEnd2, pEnd2, derr := net.Redial(recoveryVictim)
				if derr != nil {
					return nil, derr
				}
				go broker.Offer(sEnd2)
				return pEnd2, nil
			}
		}
		p, perr := NewPlatform(pc)
		if perr != nil {
			t.Fatal(perr)
		}
		platforms[k] = p
	}
	stats, err := RunConnected(srv, platforms, serverConns, platformConns)
	if err != nil {
		t.Fatal(err)
	}
	params := make([][]*nn.Param, 0, K+1)
	for k := 0; k < K; k++ {
		params = append(params, fronts[k].Params())
	}
	return append(params, back.Params()), stats
}
