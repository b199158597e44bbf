package paramserver

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"medsplit/internal/dataset"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// eachScheme runs f once per scheme: every protocol property below holds
// for SyncSGD and FedAvg alike.
func eachScheme(t *testing.T, f func(t *testing.T, sc *Scheme)) {
	for _, sc := range []*Scheme{SyncSGD, FedAvg} {
		t.Run(sc.name, func(t *testing.T) { f(t, sc) })
	}
}

func flatData(t testing.TB, classes, train, test int, seed uint64) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	tr, te := dataset.SynthCIFAR(dataset.SynthConfig{Classes: classes, Train: train, Test: test, Seed: seed})
	fl := func(d *dataset.Dataset) *dataset.Dataset {
		n := d.X.Dim(0)
		return &dataset.Dataset{X: d.X.Reshape(n, d.X.Size()/n), Labels: d.Labels, Classes: d.Classes}
	}
	return fl(tr), fl(te)
}

func buildModel(seed uint64, in, classes int) *nn.Sequential {
	return models.MLP(in, []int{32}, classes, rng.New(seed)).Net
}

// buildBN is an MLP with a BatchNorm layer, so normalization state has
// to cross the wire and be aggregated.
func buildBN(seed uint64, in, hidden, classes int) *nn.Sequential {
	r := rng.New(seed)
	return nn.NewSequential("bn-mlp",
		nn.NewDense("fc1", in, hidden, r),
		nn.NewBatchNorm("bn1", hidden),
		nn.NewTanh("tanh"),
		nn.NewDense("head", hidden, classes, r),
	)
}

func seqIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func encodeModel(m *nn.Sequential) []byte {
	return nn.EncodeModelInto(nil, m.Params(), nn.CollectState(m))
}

// pushShapes is the tensor list a server of scheme sc expects in a push
// for model m (what Serve derives from its global model).
func pushShapes(sc *Scheme, m *nn.Sequential) []*tensor.Tensor {
	var shapes []*tensor.Tensor
	for _, p := range m.Params() {
		shapes = append(shapes, sc.ship(p))
	}
	return append(shapes, nn.CollectState(m)...)
}

// session is one server and its clients; run wires them with RunLocal.
// Both sides get an SGD optimizer at lr — each scheme uses the one it
// needs — and client k samples with seed+k.
type session struct {
	scheme     *Scheme
	global     *nn.Sequential
	replica    func(k int) *nn.Sequential
	shards     []*dataset.Dataset
	batches    []int
	rounds     int
	evalEvery  int
	evalData   *dataset.Dataset
	lr, clip   float32
	localSteps int
	seed       uint64
}

func (ss session) run(t *testing.T) (*ServerStats, []*ClientStats, []*transport.Meter, error) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Scheme: ss.scheme, Model: ss.global, Opt: &nn.SGD{LR: ss.lr}, Clients: len(ss.shards),
		Rounds: ss.rounds, ClipGrads: ss.clip, EvalEvery: ss.evalEvery, EvalData: ss.evalData,
	})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, len(ss.shards))
	meters := make([]*transport.Meter, len(ss.shards))
	for k, shard := range ss.shards {
		meters[k] = &transport.Meter{}
		clients[k], err = NewClient(ClientConfig{
			Scheme: ss.scheme, ID: k, Model: ss.replica(k), Opt: &nn.SGD{LR: ss.lr},
			Loss: nn.SoftmaxCrossEntropy{}, Shard: shard, Batch: ss.batches[k],
			LocalSteps: ss.localSteps, Rounds: ss.rounds, EvalEvery: ss.evalEvery,
			Seed: ss.seed + uint64(k), Meter: meters[k],
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	srvStats, clientStats, err := RunLocal(srv, clients)
	return srvStats, clientStats, meters, err
}

func TestTrainsAndEvaluates(t *testing.T) {
	// FedAvg takes four local steps a round, so it needs fewer rounds.
	rounds := map[*Scheme]int{SyncSGD: 40, FedAvg: 12}
	eachScheme(t, func(t *testing.T, sc *Scheme) {
		train, test := flatData(t, 4, 240, 60, 41)
		in := train.X.Dim(1)
		const K = 3
		shards := dataset.ShardIID(train.Len(), K, rng.New(42))
		ss := session{
			scheme: sc, global: buildModel(5, in, 4),
			replica: func(int) *nn.Sequential { return buildModel(5, in, 4) },
			batches: []int{8, 8, 8}, rounds: rounds[sc], evalEvery: rounds[sc] / 2, evalData: test,
			lr: 0.1, localSteps: 4, seed: 200,
		}
		for k := 0; k < K; k++ {
			ss.shards = append(ss.shards, train.Subset(shards[k]))
		}
		serverStats, clientStats, meters, err := ss.run(t)
		if err != nil {
			t.Fatal(err)
		}
		if len(serverStats.Evals) != 2 {
			t.Fatalf("%d evaluations recorded, want 2", len(serverStats.Evals))
		}
		if final := serverStats.Evals[1]; final.Accuracy < 0.3 {
			t.Fatalf("final accuracy %v (chance 0.25)", final.Accuracy)
		}
		c0 := clientStats[0]
		if c0.Rounds[len(c0.Rounds)-1].Loss >= c0.Rounds[0].Loss {
			t.Fatalf("client loss did not decrease: %v -> %v", c0.Rounds[0].Loss, c0.Rounds[len(c0.Rounds)-1].Loss)
		}
		// Per round a client receives the model and pushes one tensor per
		// parameter plus the rank-0 weight scalar (1 rank byte + 4 data
		// bytes): exactly 2×|model| + 5 payload bytes in two frames.
		model := len(encodeModel(buildModel(5, in, 4)))
		want := int64(ss.rounds) * int64(wire.WireSizeFor(model)+wire.WireSizeFor(model+5))
		if got := trainingBytes(meters[0]); got != want {
			t.Fatalf("client traffic %d bytes, want %d", got, want)
		}
		if len(c0.Bytes) != len(serverStats.Evals) {
			t.Fatalf("byte snapshots %d, evals %d", len(c0.Bytes), len(serverStats.Evals))
		}
		if last := c0.Bytes[len(c0.Bytes)-1]; last.TrainingBytes != want {
			t.Fatalf("final byte snapshot %d, want %d", last.TrainingBytes, want)
		}
	})
}

// With one client (and, for FedAvg, one local step) both schemes
// degenerate to centralized SGD on the same batch sequence: the average
// of one push is that push.
func TestSingleClientEqualsCentralized(t *testing.T) {
	eachScheme(t, func(t *testing.T, sc *Scheme) {
		train, _ := flatData(t, 3, 64, 8, 43)
		in := train.X.Dim(1)
		const rounds = 8

		ref := buildModel(9, in, 3)
		refOpt := &nn.SGD{LR: 0.05}
		loss := nn.SoftmaxCrossEntropy{}
		sampler := dataset.NewBatchSampler(seqIdx(train.Len()), 8, rng.New(300^0x9e3779b97f4a7c15))
		for r := 0; r < rounds; r++ {
			x, labels := train.Batch(sampler.Next())
			nn.ZeroGrads(ref.Params())
			logits := ref.Forward(x, true)
			_, g := loss.Loss(logits, labels)
			ref.Backward(g)
			refOpt.Step(ref.Params())
		}

		global := buildModel(9, in, 3)
		ss := session{
			scheme: sc, global: global,
			replica: func(int) *nn.Sequential { return buildModel(1234, in, 3) }, // junk init: server overwrites it
			shards:  []*dataset.Dataset{train}, batches: []int{8}, rounds: rounds,
			lr: 0.05, localSteps: 1, seed: 300,
		}
		if _, _, _, err := ss.run(t); err != nil {
			t.Fatal(err)
		}
		refP, gotP := ref.Params(), global.Params()
		for i := range refP {
			if !tensor.AllClose(refP[i].W, gotP[i].W, 1e-6) {
				t.Fatalf("param %d diverged from centralized training", i)
			}
		}
	})
}

// Two clients with shard sizes 3:1 and a zero learning rate: nothing
// moves locally (FedAvg) or on the server (SyncSGD), so one round must
// return exactly the broadcast weights — a fixed-point check of the
// aggregation plumbing under unequal weights.
func TestZeroLRRoundIsFixedPoint(t *testing.T) {
	eachScheme(t, func(t *testing.T, sc *Scheme) {
		train, _ := flatData(t, 2, 40, 8, 54)
		in := train.X.Dim(1)
		global := buildModel(23, in, 2)
		before := encodeModel(global)
		shards := dataset.ShardPowerLaw(train.Len(), 2, 1.5, rng.New(55))
		ss := session{
			scheme: sc, global: global,
			replica: func(int) *nn.Sequential { return buildModel(23, in, 2) },
			shards:  []*dataset.Dataset{train.Subset(shards[0]), train.Subset(shards[1])},
			batches: []int{4, 4}, rounds: 1, lr: 0,
		}
		if _, _, _, err := ss.run(t); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, encodeModel(global)) {
			t.Fatal("zero-LR round must be an aggregation fixed point")
		}
	})
}

func TestConfigValidation(t *testing.T) {
	train, test := flatData(t, 2, 16, 8, 44)
	model := buildModel(11, train.X.Dim(1), 2)
	opt, loss := &nn.SGD{}, nn.SoftmaxCrossEntropy{}
	eachScheme(t, func(t *testing.T, sc *Scheme) {
		for name, cfg := range map[string]ServerConfig{
			"nil scheme":                 {Model: model, Opt: opt, Clients: 1, Rounds: 1},
			"nil model":                  {Scheme: sc, Opt: opt, Clients: 1, Rounds: 1},
			"EvalEvery without EvalData": {Scheme: sc, Model: model, Opt: opt, Clients: 1, Rounds: 1, EvalEvery: 2},
			"zero clients":               {Scheme: sc, Model: model, Opt: opt, Clients: 0, Rounds: 1, EvalData: test},
			"zero rounds":                {Scheme: sc, Model: model, Opt: opt, Clients: 1, Rounds: 0, EvalData: test},
		} {
			if _, err := NewServer(cfg); !errors.Is(err, ErrConfig) {
				t.Errorf("server, %s: err = %v, want ErrConfig", name, err)
			}
		}
		for name, cfg := range map[string]ClientConfig{
			"nil scheme":     {Model: model, Opt: opt, Loss: loss, Shard: train, Batch: 4, Rounds: 1},
			"nil model":      {Scheme: sc, Opt: opt, Loss: loss, Shard: train, Batch: 4, Rounds: 1},
			"nil loss":       {Scheme: sc, Model: model, Opt: opt, Shard: train, Batch: 4, Rounds: 1},
			"nil shard":      {Scheme: sc, Model: model, Opt: opt, Loss: loss, Batch: 4, Rounds: 1},
			"zero batch":     {Scheme: sc, Model: model, Opt: opt, Loss: loss, Shard: train, Batch: 0, Rounds: 1},
			"negative batch": {Scheme: sc, Model: model, Opt: opt, Loss: loss, Shard: train, Batch: -1, Rounds: 1},
			"zero rounds":    {Scheme: sc, Model: model, Opt: opt, Loss: loss, Shard: train, Batch: 4, Rounds: 0},
		} {
			if _, err := NewClient(cfg); !errors.Is(err, ErrConfig) {
				t.Errorf("client, %s: err = %v, want ErrConfig", name, err)
			}
		}
		// Only the side that steps an optimizer needs one.
		_, serr := NewServer(ServerConfig{Scheme: sc, Model: model, Clients: 1, Rounds: 1})
		if got := errors.Is(serr, ErrConfig); got != sc.serverOpt {
			t.Errorf("server without optimizer: err = %v, rejected %v, want %v", serr, got, sc.serverOpt)
		}
		_, cerr := NewClient(ClientConfig{Scheme: sc, Model: model, Loss: loss, Shard: train, Batch: 4, Rounds: 1})
		if got := errors.Is(cerr, ErrConfig); got != sc.clientOpt {
			t.Errorf("client without optimizer: err = %v, rejected %v, want %v", cerr, got, sc.clientOpt)
		}
	})
	srv, err := NewServer(ServerConfig{Scheme: FedAvg, Model: model, Clients: 2, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunLocal(srv, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("RunLocal with a client count mismatch: err = %v, want ErrConfig", err)
	}
	if _, _, err := RunLocal(nil, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("RunLocal with a nil server: err = %v, want ErrConfig", err)
	}
	if _, err := srv.Serve(nil); !errors.Is(err, ErrConfig) {
		t.Errorf("Serve with a connection count mismatch: err = %v, want ErrConfig", err)
	}
}

// runPair runs one server of scheme srvScheme expecting srvRounds
// against one real client of scheme cliScheme configured for cliRounds.
func runPair(t *testing.T, srvScheme, cliScheme *Scheme, srvRounds, cliRounds int) error {
	t.Helper()
	train, _ := flatData(t, 2, 16, 8, 45)
	in := train.X.Dim(1)
	srv, err := NewServer(ServerConfig{Scheme: srvScheme, Model: buildModel(13, in, 2), Opt: &nn.SGD{}, Clients: 1, Rounds: srvRounds})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		Scheme: cliScheme, ID: 0, Model: buildModel(13, in, 2), Opt: &nn.SGD{}, Loss: nn.SoftmaxCrossEntropy{},
		Shard: train, Batch: 4, Rounds: cliRounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = RunLocal(srv, []*Client{c})
	return err
}

func TestRejectsRoundMismatch(t *testing.T) {
	eachScheme(t, func(t *testing.T, sc *Scheme) {
		if err := runPair(t, sc, sc, 4, 6); !errors.Is(err, ErrConfig) {
			t.Fatalf("round mismatch: err = %v, want ErrConfig", err)
		}
		if err := runPair(t, sc, sc, 2, 2); err != nil {
			t.Fatalf("matching pair rejected: %v", err)
		}
	})
}

// A client of one scheme dialling a server of the other is turned away
// at the handshake — before any tensor is misread as the wrong kind.
func TestRejectsSchemeMismatch(t *testing.T) {
	if err := runPair(t, SyncSGD, FedAvg, 2, 2); !errors.Is(err, ErrConfig) {
		t.Fatalf("FedAvg client on a SyncSGD server: err = %v, want ErrConfig", err)
	}
	if err := runPair(t, FedAvg, SyncSGD, 2, 2); !errors.Is(err, ErrConfig) {
		t.Fatalf("SyncSGD client on a FedAvg server: err = %v, want ErrConfig", err)
	}
}

// helloServer starts a one-client, one-round server, sends it the given
// hello text and returns the error Serve ends with.
func helloServer(t *testing.T, sc *Scheme, hello string) error {
	t.Helper()
	train, _ := flatData(t, 2, 16, 8, 60)
	srv, err := NewServer(ServerConfig{Scheme: sc, Model: buildModel(61, train.X.Dim(1), 2), Opt: &nn.SGD{}, Clients: 1, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	sConn, cConn := transport.Pipe()
	defer cConn.Close()
	errCh := make(chan error, 1)
	go func() {
		_, serr := srv.Serve([]transport.Conn{sConn})
		errCh <- serr
		sConn.Close()
	}()
	if err := cConn.Send(&wire.Message{Type: wire.MsgHello, Payload: wire.EncodeText(hello)}); err != nil {
		t.Fatal(err)
	}
	return <-errCh
}

func TestServerRejectsBadHello(t *testing.T) {
	eachScheme(t, func(t *testing.T, sc *Scheme) {
		err := helloServer(t, sc, "v=1;algo=gossip;rounds=1;eval=0"+wire.FrameField())
		if !errors.Is(err, ErrConfig) {
			t.Fatalf("unknown algo: err = %v, want ErrConfig", err)
		}
		err = helloServer(t, sc, fmt.Sprintf("v=1;algo=%s;rounds=1;eval=3", sc.name)+wire.FrameField())
		if !errors.Is(err, ErrConfig) {
			t.Fatalf("eval cadence mismatch: err = %v, want ErrConfig", err)
		}
	})
}

// Regression test for frame-version negotiation: a client built before
// the versioned hello (no ";frame=" field) must be rejected fail-fast
// with a typed *wire.FrameSkewError, not mis-reported as a config
// mismatch or left to desynchronize mid-training.
func TestRejectsUnversionedHello(t *testing.T) {
	eachScheme(t, func(t *testing.T, sc *Scheme) {
		err := helloServer(t, sc, hello(sc, 1, 0)) // what a pre-negotiation build sends
		var skew *wire.FrameSkewError
		if !errors.As(err, &skew) {
			t.Fatalf("err = %v, want *wire.FrameSkewError", err)
		}
		if skew.Got >= 0 || skew.Want != wire.FrameVersion {
			t.Fatalf("skew = got %d want %d; expected undeclared (got < 0) against %d", skew.Got, skew.Want, wire.FrameVersion)
		}
		if !errors.Is(err, wire.ErrBadVersion) {
			t.Fatalf("err = %v, want errors.Is(..., wire.ErrBadVersion)", err)
		}
	})
}

// A peer declaring a different frame version is rejected with the
// declared version in the error.
func TestRejectsFrameSkew(t *testing.T) {
	eachScheme(t, func(t *testing.T, sc *Scheme) {
		err := helloServer(t, sc, fmt.Sprintf("%s;frame=%d", hello(sc, 1, 0), wire.FrameVersion-1))
		var skew *wire.FrameSkewError
		if !errors.As(err, &skew) {
			t.Fatalf("err = %v, want *wire.FrameSkewError", err)
		}
		if skew.Got != wire.FrameVersion-1 || skew.Want != wire.FrameVersion {
			t.Fatalf("skew = got %d want %d", skew.Got, skew.Want)
		}
	})
}

func TestDecodePushRejectsGarbage(t *testing.T) {
	eachScheme(t, func(t *testing.T, sc *Scheme) {
		model := buildBN(15, 24, 6, 2)
		params, state := model.Params(), nn.CollectState(model)
		shapes := pushShapes(sc, model)
		weight := tensor.New()
		weight.Set(4)
		var ps payloadSizer
		good := ps.encodePush(sc, params, state, weight)
		ts, n, err := decodePush(nil, good, shapes)
		if err != nil || n != 4 || len(ts) != len(shapes)+1 {
			t.Fatalf("good payload: %d tensors, weight %d, err %v", len(ts), n, err)
		}
		// The layout is shipped tensors, then state, then the weight.
		for i, p := range params {
			if !tensor.AllClose(ts[i], sc.ship(p), 0) {
				t.Fatalf("tensor %d is not the scheme's shipped tensor", i)
			}
		}
		for i, s := range state {
			if !tensor.AllClose(ts[len(params)+i], s, 0) {
				t.Fatalf("state %d misplaced", i)
			}
		}
		zero := ps.encodePush(sc, params, state, tensor.New())
		short := buildBN(15, 24, 5, 2) // one hidden unit fewer: every shape differs
		for name, bad := range map[string][]byte{
			"truncated":    good[:10],
			"no trailer":   good[:len(good)-5],
			"trailing":     append(append([]byte(nil), good...), 9),
			"zero weight":  zero,
			"garbage":      bytes.Repeat([]byte{0xff}, len(good)),
			"wrong shapes": ps.encodePush(sc, short.Params(), nn.CollectState(short), weight),
		} {
			if _, _, err := decodePush(nil, bad, shapes); !errors.Is(err, ErrProtocol) {
				t.Errorf("%s: err = %v, want ErrProtocol", name, err)
			}
		}
	})
}

// Regression test: models with BatchNorm must evaluate correctly on the
// server. Neither gradients nor a weight average move the server's
// running statistics; the protocol ships them explicitly (nn.Stateful).
// Without that, this test's global model evaluates at chance.
func TestBatchNormStateReachesServer(t *testing.T) {
	eachScheme(t, func(t *testing.T, sc *Scheme) {
		train, test := flatData(t, 3, 180, 60, 48)
		in := train.X.Dim(1)
		global := buildBN(31, in, 24, 3)
		shards := dataset.ShardIID(train.Len(), 2, rng.New(49))
		ss := session{
			scheme: sc, global: global,
			replica: func(int) *nn.Sequential { return buildBN(31, in, 24, 3) },
			shards:  []*dataset.Dataset{train.Subset(shards[0]), train.Subset(shards[1])},
			batches: []int{16, 16}, rounds: 40, evalEvery: 20, evalData: test,
			lr: 0.1, localSteps: 1, seed: 600,
		}
		serverStats, _, _, err := ss.run(t)
		if err != nil {
			t.Fatal(err)
		}
		final := serverStats.Evals[len(serverStats.Evals)-1]
		if final.Accuracy < 0.5 {
			t.Fatalf("BN model at %.0f%% on the server (chance 33%%): running stats not synced", 100*final.Accuracy)
		}
		// The server's running statistics must have moved from init (0 mean).
		state := nn.CollectState(global)
		if len(state) != 2 {
			t.Fatalf("expected 2 state tensors, got %d", len(state))
		}
		if state[0].Norm() == 0 {
			t.Fatal("server running mean still at initialization")
		}
	})
}

// exchange is one client push worth of the steady-state wire path:
// pooled encode, staged decode, payload release.
func exchange(tb testing.TB, sc *Scheme, in, classes int) func() {
	model := buildBN(31, in, 32, classes)
	params, state := model.Params(), nn.CollectState(model)
	shapes := pushShapes(sc, model)
	weight := tensor.New()
	weight.Set(16)
	var push payloadSizer
	var ts []*tensor.Tensor
	return func() {
		payload := push.encodePush(sc, params, state, weight)
		var err error
		ts, _, err = decodePush(ts, payload, shapes)
		if err != nil {
			tb.Fatal(err)
		}
		wire.Buffers.Put(payload)
	}
}

// The steady-state round path must not allocate once buffers and
// staging are warm. This is the parity assertion for running the
// baselines on wire.BufferPool: regressions that reintroduce per-round
// allocations fail here rather than only showing up in benchmark
// numbers.
func TestSteadyStateExchangeAllocFree(t *testing.T) {
	eachScheme(t, func(t *testing.T, sc *Scheme) {
		cycle := exchange(t, sc, 24, 2)
		cycle() // warm the pool and the staging tensors
		if n := testing.AllocsPerRun(50, cycle); n != 0 {
			t.Fatalf("steady-state exchange allocates %v objects per round, want 0", n)
		}
	})
}

// BenchmarkParamExchange measures one client push worth of encode+decode
// through the pooled wire path. Allocs/op is the headline number: steady
// state must report 0.
func BenchmarkParamExchange(b *testing.B) {
	for _, sc := range []*Scheme{SyncSGD, FedAvg} {
		b.Run(sc.name, func(b *testing.B) {
			cycle := exchange(b, sc, 3072, 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
