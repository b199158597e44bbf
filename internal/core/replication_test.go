package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
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
// Record codec

func TestStepRecordRoundTrip(t *testing.T) {
	rec := &stepRecord{
		round:    7,
		platform: 1,
		acts:     wire.EncodeTensors(tensor.FromSlice([]float32{1.5, -2.25, float32(math.NaN()), 0}, 2, 2)),
		tail:     []byte{9, 8, 7, 6, 5},
	}
	buf := encodeStepRecord(rec)
	got, err := decodeStepRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.round != rec.round || got.platform != rec.platform ||
		!bytes.Equal(got.acts, rec.acts) || !bytes.Equal(got.tail, rec.tail) {
		t.Fatalf("round trip changed the record: got %+v", got)
	}
	if !bytes.Equal(encodeStepRecord(got), buf) {
		t.Fatal("re-encode changed the bytes")
	}

	// A record with empty payloads still round-trips.
	empty := &stepRecord{round: 0, platform: 0}
	if _, err := decodeStepRecord(encodeStepRecord(empty)); err != nil {
		t.Fatalf("empty record: %v", err)
	}
}

func TestStepRecordDecodeErrors(t *testing.T) {
	good := encodeStepRecord(&stepRecord{round: 1, platform: 0, acts: []byte{1, 2, 3, 4}, tail: []byte{1, 2, 3}})
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"short header", good[:6]},
		{"missing activations length", good[:11]},
		{"wrong kind", append([]byte{replKindBase}, good[1:]...)},
		{"truncated activations", good[:15]},
	}
	for _, tc := range cases {
		if _, err := decodeStepRecord(tc.buf); !errors.Is(err, ErrReplica) {
			t.Errorf("%s: decode returned %v, want ErrReplica", tc.name, err)
		}
	}
}

// FuzzDecodeStepRecord hammers the step-record decoder, which reads
// both the follower stream and the WAL: it must reject garbage with
// ErrReplica (never panic), and anything it accepts must re-encode to
// exactly the bytes it came from. The committed corpus holds records
// from a real failover run.
func FuzzDecodeStepRecord(f *testing.F) {
	f.Add(encodeStepRecord(&stepRecord{round: 3, platform: 1, acts: []byte{1, 2}, tail: []byte{3}}))
	f.Add(encodeStepRecord(&stepRecord{}))
	f.Add([]byte{replKindStep})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeStepRecord(data)
		if err != nil {
			if !errors.Is(err, ErrReplica) {
				t.Fatalf("non-sentinel decode error: %v", err)
			}
			return
		}
		if !bytes.Equal(encodeStepRecord(rec), data) {
			t.Fatal("accepted record does not re-encode to its bytes")
		}
	})
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

// A follower re-executes the leader's steps, so it must compute the
// leader's bits: a bootstrap whose kernel fingerprint names another
// GOARCH fails Run with ErrConfig before any step record is persisted.
func TestFollowerRefusesForeignGOARCH(t *testing.T) {
	foreign := "arm64"
	if runtime.GOARCH == foreign {
		foreign = "amd64"
	}
	_, back := buildSplitMLP(t, 731, 8, 2)
	srv, err := NewServer(ServerConfig{Back: back, Opt: &nn.SGD{}, Platforms: 1, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	log := openTestWAL(t, "foreign")
	leader, stream := transport.Pipe()
	defer stream.Close()
	f, err := NewFollower(FollowerConfig{Platforms: 1, Conn: stream, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Run() }()

	if err := leader.Send(&wire.Message{Type: wire.MsgReplBase, Payload: EncodeSnapshot(srv.Snapshot(0))}); err != nil {
		t.Fatal(err)
	}
	if m, err := leader.Recv(); err != nil || m.Type != wire.MsgReplAck {
		t.Fatalf("bootstrap ack: %v %v", m, err)
	}
	meta := wire.EncodeText("evaluator=0;goarch=" + foreign)
	if err := leader.Send(&wire.Message{Type: wire.MsgReplMeta, Payload: meta}); err != nil {
		t.Fatal(err)
	}
	// A step record right behind the meta must never reach the log; the
	// close below releases this send.
	go leader.Send(&wire.Message{Type: wire.MsgReplRecord, Payload: encodeStepRecord(&stepRecord{})})
	if err := <-done; !errors.Is(err, ErrConfig) {
		t.Fatalf("foreign leader: Run returned %v, want ErrConfig", err)
	}
	leader.Close()
	if n := log.LastIndex(); n != 1 {
		t.Fatalf("follower logged %d records, want only the base", n)
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
	schedule    nn.Schedule
	labelShare  bool
	// segmentBytes, when positive, rolls both WALs' segments that small,
	// so compaction drops whole segments and keeps pre-base records.
	segmentBytes int
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
	replayed  int     // step records after the follower's last base (what promotion re-executes)
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
	leaderLog, err := wal.Open(leaderWALDir, wal.Options{SegmentBytes: o.segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer leaderLog.Close()
	followerLog, err := wal.Open(filepath.Join(t.TempDir(), "follower-wal"), wal.Options{SegmentBytes: o.segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer followerLog.Close()

	streamLeader, streamFollower := transport.Pipe()
	follower, err := NewFollower(FollowerConfig{Platforms: K, Conn: streamFollower, Log: followerLog})
	if err != nil {
		t.Fatal(err)
	}

	broker := NewRejoinBroker()
	defer broker.Close()

	scfg := ServerConfig{
		Back: back, Opt: &nn.SGD{LR: 0.05}, Platforms: K, Rounds: o.rounds,
		L1SyncEvery: o.l1SyncEvery, LRSchedule: o.schedule,
		LabelSharing: o.labelShare, Loss: nn.SoftmaxCrossEntropy{},
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
			L1SyncEvery: o.l1SyncEvery, Seed: uint64(300 + k), LabelSharing: o.labelShare,
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
				Rounds: o.rounds, L1SyncEvery: o.l1SyncEvery, LRSchedule: o.schedule,
				LabelSharing: o.labelShare, Loss: nn.SoftmaxCrossEntropy{},
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

	replayed := 0
	if o.kill != nil {
		// Promotion latency is bounded by the step records since the last
		// base, one server step each. Time the same scan and re-execution
		// on the follower's log.
		_, steps, took := replayOffline(t, followerLog, o, in)
		t.Logf("promotion re-executes %d step records since the last base in %v", steps, took)
		replayed = steps
	}

	res := failoverResult{stats: stats, leaderWAL: leaderWALDir, replayed: replayed}
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

// replayOffline re-executes a replicated session's log onto a fresh
// back half under the harness's server config. It returns the server,
// the number of step records re-executed, and the time the scan and
// re-execution took.
func replayOffline(t *testing.T, log *wal.Log, o failoverOpts, in int) (*Server, int, time.Duration) {
	t.Helper()
	_, back := buildSplitMLP(t, 713, in, 4)
	srv, err := NewServer(ServerConfig{
		Back: back, Opt: &nn.SGD{LR: 0.05}, Platforms: 2, Rounds: o.rounds,
		L1SyncEvery: o.l1SyncEvery, LRSchedule: o.schedule,
		LabelSharing: o.labelShare, Loss: nn.SoftmaxCrossEntropy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rs, err := scanWAL(log, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.replayWAL(log, rs); err != nil {
		t.Fatal(err)
	}
	return srv, int(log.LastIndex() - rs.baseIndex), time.Since(start)
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
		{"die sending cut-grad to platform 0 under a step-decay LR schedule",
			failoverOpts{rounds: rounds, schedule: nn.StepDecay(0.05, 0.5, 2), kill: killOn(0, wire.MsgCutGrad, 5)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := baseline
			if tc.o.schedule != nil {
				// Re-execution must apply each record's own round's LR.
				want, _ = recoveryRun(t, recoveryOpts{rounds: rounds, schedule: tc.o.schedule})
			}
			res := failoverRun(t, tc.o)
			assertParamsBitIdentical(t, tc.name, want, res.params)
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

// Checkpoint compaction drops whole segments, so with small segments
// the follower's log keeps steps from before its last base. Promotion
// must skip them, re-execute only what follows the base, and still
// land bit-identically.
func TestFailoverAcrossCompactedSegments(t *testing.T) {
	const rounds = 10
	baseline, _ := recoveryRun(t, recoveryOpts{rounds: rounds})
	res := failoverRun(t, failoverOpts{
		rounds: rounds, ckptEvery: 4, segmentBytes: 4 << 10,
		kill: killOn(0, wire.MsgCutGrad, 9),
	})
	assertParamsBitIdentical(t, "failover across compacted segments", baseline, res.params)
	if res.replayed != 3 {
		t.Fatalf("promotion re-executed %d step records, want the 3 since the round-8 base", res.replayed)
	}
}

// A finished leader's WAL replays offline into exactly the live final
// state — the leader-restart recovery path: scanning the log and
// re-executing it across the compaction the round-8 checkpoint
// performed, onto a fresh back half with the leader's config, lands on
// the live leader's final parameters and optimizer state.
func TestRecoverServerStateFromWAL(t *testing.T) {
	const rounds = 10
	o := failoverOpts{rounds: rounds, ckptEvery: 4}
	res := failoverRun(t, o)

	log, err := wal.Open(res.leaderWAL, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	rs, err := scanWAL(log, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := rs.resumePoint(); r != rounds {
		t.Fatalf("recovered resume point %d, want %d", r, rounds)
	}
	if rs.base.NextRound != 8 {
		t.Fatalf("last base at round %d, want the round-8 checkpoint", rs.base.NextRound)
	}
	in := res.params[0][0].W.Dim(0) // the front's first Dense weight is [in, hidden]
	srv, _, _ := replayOffline(t, log, o, in)
	recovered, live := srv.Snapshot(rounds), res.leader.Snapshot(rounds)
	if len(recovered.Tensors) != len(live.Tensors) {
		t.Fatalf("recovered %d tensors, live has %d", len(recovered.Tensors), len(live.Tensors))
	}
	for i := range live.Tensors {
		a, b := recovered.Tensors[i].Data(), live.Tensors[i].Data()
		for j := range b {
			if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
				t.Fatalf("tensor %d[%d]: recovered bits %x, live %x", i, j, math.Float32bits(a[j]), math.Float32bits(b[j]))
			}
		}
	}
	if len(recovered.Scalars) != len(live.Scalars) {
		t.Fatalf("recovered %d scalars, live has %d", len(recovered.Scalars), len(live.Scalars))
	}
	for i := range live.Scalars {
		if recovered.Scalars[i] != live.Scalars[i] {
			t.Fatalf("scalar %d: recovered %d, live %d", i, recovered.Scalars[i], live.Scalars[i])
		}
	}
}

// Promotion reconciles through the live-rejoin reconciler but keeps
// its own, narrower grammar: with the log's base at round 3 (every
// platform's last recorded round 2), a platform may rejoin only at the
// top of round 3. A platform behind the log is refused, not
// fast-forwarded, as are one that announces the recorded round away
// from the cut gradient, one ahead of the log, and a position outside
// the train table.
func TestPromotionRefusesDivergentRejoins(t *testing.T) {
	cases := []struct {
		name      string
		next, pos int
		ok        bool
	}{
		{"top of the round after the log", 3, posActs, true},
		{"mid-exchange of that round", 3, posLossGrad, true},
		{"behind the log", 1, posActs, false},
		{"recorded round away from the cut gradient", 2, posActs, false},
		{"recorded round with no recorded cut", 2, posCutGrad, false},
		{"ahead of the log", 4, posActs, false},
		{"position outside the table", 3, posLabels, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := promoteWithRejoin(t, tc.next, tc.pos)
			if tc.ok && err != nil {
				t.Fatalf("promotion refused a consistent rejoin: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrProtocol) {
				t.Fatalf("promotion returned %v, want ErrProtocol", err)
			}
		})
	}
}

// promoteWithRejoin bootstraps a one-platform follower from a base
// snapshot at round 3, lets the leader's stream end, and promotes it
// while the platform rejoins announcing (next, pos).
func promoteWithRejoin(t *testing.T, next, pos int) error {
	t.Helper()
	_, back := buildSplitMLP(t, 731, 8, 2)
	leaderSrv, err := NewServer(ServerConfig{Back: back, Opt: &nn.SGD{}, Platforms: 1, Rounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	leader, stream := transport.Pipe()
	defer stream.Close()
	f, err := NewFollower(FollowerConfig{Platforms: 1, Conn: stream, Log: openTestWAL(t, "promote")})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Run() }()
	if err := leader.Send(&wire.Message{Type: wire.MsgReplBase, Payload: EncodeSnapshot(leaderSrv.Snapshot(3))}); err != nil {
		t.Fatal(err)
	}
	if m, err := leader.Recv(); err != nil || m.Type != wire.MsgReplAck {
		t.Fatalf("bootstrap ack: %v %v", m, err)
	}
	if err := leader.Send(&wire.Message{Type: wire.MsgReplMeta, Payload: wire.EncodeText("evaluator=-1;goarch=" + runtime.GOARCH)}); err != nil {
		t.Fatal(err)
	}
	leader.Close()
	if err := <-done; err != nil {
		t.Fatalf("follower: %v", err)
	}

	broker := NewRejoinBroker()
	defer broker.Close()
	s2, c2 := transport.Pipe()
	defer c2.Close()
	go func() {
		if c2.Send(&wire.Message{Type: wire.MsgRejoin, Payload: wire.EncodeText(rejoinMeta(next, pos))}) != nil {
			return
		}
		for { // drain the ack of an accepted rejoin
			if _, err := c2.Recv(); err != nil {
				return
			}
		}
	}()
	if err := broker.Offer(s2); err != nil {
		t.Fatal(err)
	}
	_, back2 := buildSplitMLP(t, 732, 8, 2)
	_, conns, err := f.Promote(PromoteConfig{
		Server: ServerConfig{Back: back2, Opt: &nn.SGD{}, Platforms: 1, Rounds: 6},
		Broker: broker,
		Window: time.Second,
	})
	closeAll(conns)
	return err
}
