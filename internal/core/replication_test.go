package core

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"medsplit/internal/dataset"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/transport/testutil"
	"medsplit/internal/wal"
	"medsplit/internal/wire"
)

// ---------------------------------------------------------------------------
// Record codec and delta algebra

func TestStepRecordRoundTrip(t *testing.T) {
	a := tensor.FromSlice([]float32{1.5, -2.25, float32(math.NaN()), 0}, 2, 2)
	b := tensor.FromSlice([]float32{3e-39, -0}, 2) // denormal and signed zero
	rec := &stepRecord{
		round:    7,
		platform: 1,
		batch:    8,
		lossFlag: true,
		scalars:  []uint64{3, math.Float64bits(0.05), 42, 0},
		deltas:   []*tensor.Tensor{a, b},
		cut:      []byte{9, 8, 7, 6, 5},
	}
	got, err := decodeStepRecord(encodeStepRecord(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.round != rec.round || got.platform != rec.platform || got.batch != rec.batch || got.lossFlag != rec.lossFlag {
		t.Fatalf("header fields: got %+v", got)
	}
	if len(got.scalars) != len(rec.scalars) {
		t.Fatalf("scalars: got %v", got.scalars)
	}
	for i, v := range rec.scalars {
		if got.scalars[i] != v {
			t.Fatalf("scalar %d: got %d, want %d", i, got.scalars[i], v)
		}
	}
	if len(got.deltas) != 2 {
		t.Fatalf("deltas: got %d tensors", len(got.deltas))
	}
	for i, want := range rec.deltas {
		d := got.deltas[i].Data()
		w := want.Data()
		for j := range w {
			if math.Float32bits(d[j]) != math.Float32bits(w[j]) {
				t.Fatalf("delta %d[%d]: bits %x, want %x", i, j, math.Float32bits(d[j]), math.Float32bits(w[j]))
			}
		}
	}
	if string(got.cut) != string(rec.cut) {
		t.Fatalf("cut: got %v", got.cut)
	}

	// A record with no scalars, no deltas and no cut still round-trips.
	empty := &stepRecord{round: 0, platform: 0}
	if _, err := decodeStepRecord(encodeStepRecord(empty)); err != nil {
		t.Fatalf("empty record: %v", err)
	}
}

func TestStepRecordDecodeErrors(t *testing.T) {
	good := encodeStepRecord(&stepRecord{
		round: 1, platform: 0, scalars: []uint64{7},
		deltas: []*tensor.Tensor{tensor.FromSlice([]float32{1, 2}, 2)},
		cut:    []byte{1, 2, 3},
	})
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"short header", good[:10]},
		{"wrong kind", append([]byte{replKindBase}, good[1:]...)},
		{"truncated scalars", good[:19]},
		{"truncated delta block", good[:len(good)-8]},
		{"trailing garbage", append(append([]byte(nil), good...), 0xFF)},
	}
	for _, tc := range cases {
		if _, err := decodeStepRecord(tc.buf); err == nil {
			t.Errorf("%s: decode accepted a malformed record", tc.name)
		}
	}
}

func TestXorDeltasReversible(t *testing.T) {
	r := rng.New(99)
	randT := func(shape ...int) *tensor.Tensor {
		x := tensor.New(shape...)
		d := x.Data()
		for i := range d {
			d[i] = math.Float32frombits(uint32(r.Uint64()))
		}
		return x
	}
	prev := []*tensor.Tensor{randT(3, 4), randT(7)}
	// cur has one extra tensor: the lazily-allocated optimizer buffer case.
	cur := []*tensor.Tensor{randT(3, 4), randT(7), randT(2, 2)}

	deltas, err := xorDeltas(cur, prev)
	if err != nil {
		t.Fatal(err)
	}
	// Replica side: state = prev, apply the deltas.
	state := []*tensor.Tensor{prev[0].Clone(), prev[1].Clone()}
	for i, d := range deltas {
		if i < len(state) {
			xorInto(state[i], d)
		} else {
			state = append(state, d)
		}
	}
	if len(state) != len(cur) {
		t.Fatalf("replica has %d tensors, want %d", len(state), len(cur))
	}
	for i := range cur {
		a, b := state[i].Data(), cur[i].Data()
		for j := range b {
			if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
				t.Fatalf("tensor %d[%d]: bits %x, want %x", i, j, math.Float32bits(a[j]), math.Float32bits(b[j]))
			}
		}
	}

	// Shrinking or reshaping state is a refused corruption, not a delta.
	if _, err := xorDeltas(prev, cur); err == nil {
		t.Fatal("xorDeltas accepted shrinking state")
	}
	if _, err := xorDeltas([]*tensor.Tensor{randT(4, 3), randT(7)}, prev); err == nil {
		t.Fatal("xorDeltas accepted a shape change")
	}
}

func TestResumePoint(t *testing.T) {
	cases := []struct {
		name      string
		lastRound []int
		wantRound int
		wantDone  []bool
	}{
		{"round complete", []int{5, 5}, 6, []bool{false, false}},
		{"mid round", []int{5, 4}, 5, []bool{true, false}},
		{"nothing recorded", []int{-1, -1}, 0, []bool{false, false}},
		{"first platform only", []int{0, -1}, 0, []bool{true, false}},
		{"three way prefix", []int{3, 3, 2}, 3, []bool{true, true, false}},
	}
	for _, tc := range cases {
		rs := newReplicaState(len(tc.lastRound))
		copy(rs.lastRound, tc.lastRound)
		round, done := rs.resumePoint()
		if round != tc.wantRound {
			t.Errorf("%s: round %d, want %d", tc.name, round, tc.wantRound)
		}
		for k := range tc.wantDone {
			if done[k] != tc.wantDone[k] {
				t.Errorf("%s: done[%d]=%v, want %v", tc.name, k, done[k], tc.wantDone[k])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Configuration validation

func TestReplicationConfigValidation(t *testing.T) {
	train, _ := testData(t, 2, 16, 4, 174)
	flat := flatten(train)
	_, back := buildSplitMLP(t, 731, flat.X.Dim(1), 2)
	log := openTestWAL(t, "valid")
	broker := NewRejoinBroker()
	defer broker.Close()

	mk := func(mut func(*ServerConfig)) error {
		cfg := ServerConfig{
			Back: back, Opt: &nn.SGD{}, Platforms: 1, Rounds: 1,
			Replication: &ReplicationConfig{Log: log},
		}
		if mut != nil {
			mut(&cfg)
		}
		_, err := NewServer(cfg)
		return err
	}
	if err := mk(nil); err != nil {
		t.Fatalf("valid replication config rejected: %v", err)
	}
	if err := mk(func(c *ServerConfig) { c.Replication = &ReplicationConfig{} }); err == nil {
		t.Fatal("replication without a WAL accepted")
	}
	if err := mk(func(c *ServerConfig) { c.Mode = RoundModeConcat }); err == nil {
		t.Fatal("replication with concat mode accepted")
	}

	if _, err := NewFollower(FollowerConfig{Platforms: 0, Conn: nil, Log: log}); err == nil {
		t.Fatal("follower with zero platforms accepted")
	}
	s, c := transport.Pipe()
	defer s.Close()
	defer c.Close()
	if _, err := NewFollower(FollowerConfig{Platforms: 1, Conn: c}); err == nil {
		t.Fatal("follower without a WAL accepted")
	}
	f, err := NewFollower(FollowerConfig{Platforms: 1, Conn: c, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	// Promoting before bootstrap must refuse.
	if _, _, err := f.Promote(PromoteConfig{Broker: broker, Window: time.Second}); err == nil {
		t.Fatal("promotion before bootstrap accepted")
	}
	// A dead stream before the bootstrap is an error, not a clean end.
	s.Close()
	if err := f.Run(); err == nil {
		t.Fatal("follower stream death before bootstrap reported success")
	}
}

func openTestWAL(t *testing.T, name string) *wal.Log {
	t.Helper()
	log, err := wal.Open(filepath.Join(t.TempDir(), name), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return log
}

// ---------------------------------------------------------------------------
// Differential failover harness

// leaderKiller emulates the leader process dying at one scripted wire
// operation: when the trigger matches, every connection the leader
// holds — all platform links and the follower stream — closes at once
// and the send errors.
type leaderKiller struct {
	transport.Conn
	trigger func(*wire.Message) bool
	kill    func()
	fired   bool
}

func (c *leaderKiller) Send(m *wire.Message) error {
	if !c.fired && c.trigger(m) {
		c.fired = true
		c.kill()
		return fmt.Errorf("failover test: leader died on %s r%d", m.Type, m.Round)
	}
	return c.Conn.Send(m)
}

// failoverOpts configures one replicated session (optionally killed).
type failoverOpts struct {
	rounds      int
	l1SyncEvery int
	ckptEvery   int // exercises checkpoint-boundary WAL compaction
	// kill, when non-nil, names the leader's outbound message that
	// kills it (k is the destination platform).
	kill func(k int, m *wire.Message) bool
}

// failoverResult is what a replicated run leaves behind.
type failoverResult struct {
	params    [][]*nn.Param // fronts..., back (the surviving server's)
	stats     []*PlatformStats
	leaderWAL string  // leader's WAL dir, log closed
	leader    *Server // nil if the leader was killed
}

// failoverRun executes a 2-platform replicated session with one warm
// follower. Without a kill the leader finishes and its back half is the
// result; with one, the leader dies mid-training, the follower promotes
// and finishes the session, and the promoted back half is the result.
// All seeds match recoveryRun, so its baselines compare bit for bit.
func failoverRun(t *testing.T, o failoverOpts) failoverResult {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	const K = 2
	train, _ := testData(t, 4, 240, 60, 171)
	flat := flatten(train)
	in := flat.X.Dim(1)
	fronts, back := buildFronts(t, 711, K, in, 4)
	// The follower's own back half: same architecture, different init —
	// bootstrap and replay must fully overwrite it.
	_, followerBack := buildSplitMLP(t, 712, in, 4)
	shards := dataset.ShardIID(flat.Len(), K, rng.New(172))

	leaderWALDir := filepath.Join(t.TempDir(), "leader-wal")
	leaderLog, err := wal.Open(leaderWALDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leaderLog.Close()
	followerLog := openTestWAL(t, "follower-wal")

	streamLeader, streamFollower := transport.Pipe()
	follower, err := NewFollower(FollowerConfig{Platforms: K, Conn: streamFollower, Log: followerLog})
	if err != nil {
		t.Fatal(err)
	}

	broker := NewRejoinBroker()
	defer broker.Close()

	scfg := ServerConfig{
		Back: back, Opt: &nn.SGD{LR: 0.05}, Platforms: K, Rounds: o.rounds,
		L1SyncEvery: o.l1SyncEvery,
		Replication: &ReplicationConfig{Log: leaderLog, Followers: []transport.Conn{streamLeader}},
	}
	if o.ckptEvery > 0 {
		scfg.CheckpointEvery = o.ckptEvery
		scfg.CheckpointDir = t.TempDir()
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}

	rawServer := make([]transport.Conn, K)
	serverConns := make([]transport.Conn, K)
	platformConns := make([]transport.Conn, K)
	platforms := make([]*Platform, K)
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			for _, c := range rawServer {
				c.Close()
			}
			streamLeader.Close()
		})
	}
	for k := 0; k < K; k++ {
		sEnd, cEnd := transport.Pipe()
		rawServer[k] = sEnd
		serverConns[k] = sEnd
		if o.kill != nil {
			kk := k
			serverConns[k] = &leaderKiller{
				Conn:    sEnd,
				trigger: func(m *wire.Message) bool { return o.kill(kk, m) },
				kill:    kill,
			}
		}
		platformConns[k] = cEnd
		pc := PlatformConfig{
			ID: k, Front: fronts[k], Opt: &nn.SGD{LR: 0.05}, Loss: nn.SoftmaxCrossEntropy{},
			Shard: flat.Subset(shards[k]), Batch: 8, Rounds: o.rounds,
			L1SyncEvery: o.l1SyncEvery, Seed: uint64(300 + k),
			RejoinWindow: 30 * time.Second,
			Redial: func() (transport.Conn, error) {
				s2, c2 := transport.Pipe()
				go broker.Offer(s2)
				return c2, nil
			},
		}
		p, perr := NewPlatform(pc)
		if perr != nil {
			t.Fatal(perr)
		}
		platforms[k] = p
	}

	// Leader: a clean finish ends the replication stream; a death takes
	// every connection the process held down with it.
	leaderErr := make(chan error, 1)
	go func() {
		err := srv.Serve(serverConns)
		if err != nil {
			kill()
		}
		streamLeader.Close()
		leaderErr <- err
	}()

	// Follower: consume the stream; when the leader dies, promote and
	// finish the session.
	standbyErr := make(chan error, 1)
	go func() {
		if err := follower.Run(); err != nil {
			standbyErr <- fmt.Errorf("follower: %w", err)
			return
		}
		if o.kill == nil {
			standbyErr <- nil
			return
		}
		promoted, conns, err := follower.Promote(PromoteConfig{
			Server: ServerConfig{
				Back: followerBack, Opt: &nn.SGD{LR: 0.05}, Platforms: K,
				Rounds: o.rounds, L1SyncEvery: o.l1SyncEvery,
			},
			Broker: broker,
			Window: 30 * time.Second,
		})
		if err != nil {
			standbyErr <- fmt.Errorf("promote: %w", err)
			return
		}
		if err := promoted.Serve(conns); err != nil {
			standbyErr <- fmt.Errorf("promoted server: %w", err)
			return
		}
		for _, c := range conns {
			c.Close()
		}
		standbyErr <- nil
	}()

	stats := make([]*PlatformStats, K)
	perrs := make([]error, K)
	var wg sync.WaitGroup
	wg.Add(K)
	for k := 0; k < K; k++ {
		k := k
		go func() {
			defer wg.Done()
			st, err := platforms[k].Run(platformConns[k])
			if err != nil {
				perrs[k] = fmt.Errorf("platform %d: %w", k, err)
				platformConns[k].Close()
				return
			}
			stats[k] = st
		}()
	}
	wg.Wait()
	lerr := <-leaderErr
	serr := <-standbyErr
	streamFollower.Close()
	for _, c := range rawServer {
		c.Close()
	}

	if err := errors.Join(append(perrs, serr)...); err != nil {
		t.Fatal(err)
	}
	if o.kill == nil && lerr != nil {
		t.Fatalf("leader: %v", lerr)
	}
	if o.kill != nil && lerr == nil {
		t.Fatal("the scripted kill never fired: the leader finished cleanly")
	}

	res := failoverResult{stats: stats, leaderWAL: leaderWALDir}
	for k := 0; k < K; k++ {
		res.params = append(res.params, fronts[k].Params())
	}
	if o.kill == nil {
		res.params = append(res.params, back.Params())
		res.leader = srv
	} else {
		res.params = append(res.params, followerBack.Params())
	}
	return res
}

// killOn scripts the leader's death on one outbound message.
func killOn(platform int, msg wire.MsgType, round int) func(int, *wire.Message) bool {
	return func(k int, m *wire.Message) bool {
		return k == platform && m.Type == msg && int(m.Round) == round
	}
}

// Replication must be trajectory-transparent: a replicated session with
// a healthy leader lands on exactly the weights an unreplicated one
// does.
func TestReplicationTransparent(t *testing.T) {
	const rounds = 10
	baseline, _ := recoveryRun(t, recoveryOpts{rounds: rounds})
	res := failoverRun(t, failoverOpts{rounds: rounds})
	assertParamsBitIdentical(t, "replicated healthy run", baseline, res.params)
}

// The headline guarantee: the leader is killed mid-training, the warm
// follower promotes, every platform re-homes to it, and the finished
// session's weights are bit-identical to an undisturbed run. Each case
// lands the death at a different point of the record grammar, covering
// both reconciliation arms (replay the recorded-but-undelivered cut
// gradient; re-enter the round from the platform's stage cache) and the
// mid-round resume that skips already-recorded steps.
func TestFailoverBitIdentical(t *testing.T) {
	const rounds = 10
	baseline, _ := recoveryRun(t, recoveryOpts{rounds: rounds})

	cases := []struct {
		name string
		o    failoverOpts
	}{
		{"die sending cut-grad to platform 0 (mid-round resume + cut replay)",
			failoverOpts{rounds: rounds, kill: killOn(0, wire.MsgCutGrad, 5)}},
		{"die sending cut-grad to platform 1 (round complete + cut replay)",
			failoverOpts{rounds: rounds, kill: killOn(1, wire.MsgCutGrad, 5)}},
		{"die sending logits to platform 0 (no step recorded, both re-enter)",
			failoverOpts{rounds: rounds, kill: killOn(0, wire.MsgLogits, 5)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := failoverRun(t, tc.o)
			assertParamsBitIdentical(t, tc.name, baseline, res.params)
			for k, st := range res.stats {
				if len(st.Rounds) != rounds {
					t.Fatalf("platform %d trained %d rounds, want %d", k, len(st.Rounds), rounds)
				}
			}
		})
	}
}

// Failover composed with L1-sync weight averaging and checkpoint-driven
// WAL compaction: the promoted server's sync weighting (primed from the
// replicated lastBatch bookkeeping) and a log that was compacted at the
// round-4 checkpoint must still land bit-identically.
func TestFailoverWithSyncAndCompaction(t *testing.T) {
	const rounds = 10
	baseline, _ := recoveryRun(t, recoveryOpts{rounds: rounds, l1SyncEvery: 4})
	res := failoverRun(t, failoverOpts{
		rounds: rounds, l1SyncEvery: 4, ckptEvery: 4,
		kill: killOn(0, wire.MsgCutGrad, 6),
	})
	assertParamsBitIdentical(t, "failover with sync and compaction", baseline, res.params)
}

// A finished leader's WAL replays offline into exactly the live final
// state — the leader-restart recovery path, including replay across the
// compaction the round-8 checkpoint performed.
func TestRecoverServerStateFromWAL(t *testing.T) {
	const rounds = 10
	res := failoverRun(t, failoverOpts{rounds: rounds, ckptEvery: 4})

	log, err := wal.Open(res.leaderWAL, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	snap, err := RecoverServerState(log, 2)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextRound != rounds {
		t.Fatalf("recovered NextRound %d, want %d", snap.NextRound, rounds)
	}
	live := res.leader.Snapshot(rounds)
	if len(snap.Tensors) != len(live.Tensors) {
		t.Fatalf("recovered %d tensors, live has %d", len(snap.Tensors), len(live.Tensors))
	}
	for i := range live.Tensors {
		a, b := snap.Tensors[i].Data(), live.Tensors[i].Data()
		for j := range b {
			if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
				t.Fatalf("tensor %d[%d]: recovered bits %x, live %x", i, j, math.Float32bits(a[j]), math.Float32bits(b[j]))
			}
		}
	}
	if len(snap.Scalars) != len(live.Scalars) {
		t.Fatalf("recovered %d scalars, live has %d", len(snap.Scalars), len(live.Scalars))
	}
	for i := range live.Scalars {
		if snap.Scalars[i] != live.Scalars[i] {
			t.Fatalf("scalar %d: recovered %d, live %d", i, snap.Scalars[i], live.Scalars[i])
		}
	}
}
