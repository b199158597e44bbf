package serve

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"medsplit/internal/core"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/transport/testutil"
	"medsplit/internal/wire"
)

// rawFixture is a serving fixture with the Manager exposed, for tests
// that need to wedge the compute scheduler or speak raw frames.
func rawFixture(t *testing.T, mcfg Config, icfg InferConfig) (m *Manager, is *InferenceServer, conn transport.Conn) {
	t.Helper()
	m, err := NewManager(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	is, err = NewInferenceServer(m, icfg)
	if err != nil {
		t.Fatal(err)
	}
	s, p := transport.Pipe()
	go is.HandleConn(s)
	t.Cleanup(func() {
		s.Close()
		p.Close()
		is.Close()
		m.Close()
	})
	return m, is, p
}

// sendRaw frames one inference request with explicit header fields.
func sendRaw(t *testing.T, conn transport.Conn, h wire.InferHeader, round uint32, rows int) {
	t.Helper()
	a := tensor.New(rows, 16)
	if err := conn.Send(&wire.Message{
		Type:    wire.MsgInferRequest,
		Round:   round,
		Payload: wire.EncodeInferRequest(h, a),
	}); err != nil {
		t.Fatal(err)
	}
}

// recvServeError expects the next frame to be a structured rejection
// for the given round and returns its code and retry-after hint.
func recvServeError(t *testing.T, conn transport.Conn, round uint32) (wire.ErrCode, time.Duration) {
	t.Helper()
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != wire.MsgInferResponse || m.Round != round {
		t.Fatalf("got %s round %d, want infer-response round %d", m.Type, m.Round, round)
	}
	code, retryAfter, _, derr := wire.DecodeServeError(m.Payload)
	if derr != nil {
		t.Fatalf("round %d: expected a structured error payload: %v", round, derr)
	}
	return code, retryAfter
}

// cutTenant builds a tenant whose back half accepts 16-wide cut
// activations, matching sendRaw's raw payloads.
func cutTenant(name string) TenantConfig {
	return TenantConfig{
		Name: name,
		BuildBack: func() (*nn.Sequential, error) {
			m := models.MLP(16, []int{16}, 4, rng.New(3))
			_, back, err := models.Split(m.Net, m.DefaultCut)
			return back, err
		},
	}
}

// A full admission queue must shed deterministically with a typed
// overloaded rejection and a retry-after hint — never block the
// connection reader or buffer without bound.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	flushEvery := 40 * time.Millisecond
	m, is, conn := rawFixture(t,
		Config{Tenants: []TenantConfig{cutTenant("alpha")}, ComputeSlots: 1},
		InferConfig{BatchMax: 1, QueueCap: 2, FlushEvery: flushEvery})

	// Wedge the single compute slot so the batcher blocks mid-flush.
	hold := m.sched.register("test-hold")
	release := hold.Acquire()

	sendRaw(t, conn, wire.InferHeader{Tenant: "alpha"}, 1, 1)
	// Wait for the batcher to pull request 1 into its pending batch
	// (it then blocks acquiring compute and pulls nothing more).
	ts := is.serving["alpha"]
	for len(ts.jobs) > 0 {
		time.Sleep(time.Millisecond)
	}
	sendRaw(t, conn, wire.InferHeader{Tenant: "alpha"}, 2, 1) // fills queue slot 1
	sendRaw(t, conn, wire.InferHeader{Tenant: "alpha"}, 3, 1) // fills queue slot 2
	sendRaw(t, conn, wire.InferHeader{Tenant: "alpha"}, 4, 1) // over capacity: shed

	code, retryAfter := recvServeError(t, conn, 4)
	if code != wire.CodeOverloaded {
		t.Fatalf("code %v, want overloaded", code)
	}
	if retryAfter != flushEvery {
		t.Fatalf("retry-after %v, want one flush interval %v", retryAfter, flushEvery)
	}

	// The queue must still be more than half full: the health probe
	// reports the tenant degraded while shedding is imminent.
	if h := is.Health(); len(h) != 1 || h[0].State != wire.HealthDegraded {
		t.Fatalf("health %+v, want alpha degraded under a full queue", h)
	}

	release()
	m.sched.unregister(hold)
	for _, round := range []uint32{1, 2, 3} {
		msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Round != round {
			t.Fatalf("response round %d, want %d", msg.Round, round)
		}
		if _, _, _, derr := wire.DecodeServeError(msg.Payload); derr == nil {
			t.Fatalf("round %d rejected; queued requests must still be served", round)
		}
	}
	st := is.Stats()
	if st.Requests != 3 || st.Rejected != 1 || st.Shed != 1 {
		t.Fatalf("stats %+v: want 3 admitted, 1 shed", st)
	}
}

// A request whose deadline passes while it waits for compute must be
// shed before the forward pass, with a typed expired rejection, while
// deadline-free requests in the same batch are served.
func TestExpiredRequestShedBeforeCompute(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	m, is, conn := rawFixture(t,
		Config{Tenants: []TenantConfig{cutTenant("alpha")}, ComputeSlots: 1},
		InferConfig{BatchMax: 1, QueueCap: 8, FlushEvery: 5 * time.Millisecond})

	hold := m.sched.register("test-hold")
	release := hold.Acquire()

	sendRaw(t, conn, wire.InferHeader{Tenant: "alpha"}, 1, 1) // no deadline
	ts := is.serving["alpha"]
	for len(ts.jobs) > 0 {
		time.Sleep(time.Millisecond)
	}
	// 20ms of budget, then make the batcher sit on the wedged slot for
	// longer than that before it can flush request 2.
	sendRaw(t, conn, wire.InferHeader{Tenant: "alpha", DeadlineMicros: 20_000}, 2, 1)
	time.Sleep(30 * time.Millisecond)
	release()
	m.sched.unregister(hold)

	// Round 1 is answered by a compute lane and round 2 rejected by the
	// batcher, independently: match the two responses by round.
	byRound := map[uint32]*wire.Message{}
	for range 2 {
		msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		byRound[msg.Round] = msg
	}
	if m1 := byRound[1]; m1 == nil {
		t.Fatalf("responses for rounds %v, want served round 1", byRound)
	} else if _, _, _, derr := wire.DecodeServeError(m1.Payload); derr == nil {
		t.Fatal("round 1 rejected, want it served")
	}
	m2 := byRound[2]
	if m2 == nil {
		t.Fatalf("responses for rounds %v, want rejected round 2", byRound)
	}
	code, _, _, derr := wire.DecodeServeError(m2.Payload)
	if derr != nil {
		t.Fatalf("round 2: expected a structured error payload: %v", derr)
	}
	if code != wire.CodeExpired {
		t.Fatalf("code %v, want expired", code)
	}
	st := is.Stats()
	if st.Expired != 1 {
		t.Fatalf("stats %+v: want one expired shed", st)
	}
	if st.Batches != 1 {
		t.Fatalf("stats %+v: the expired request must never reach the forward pass", st)
	}
}

// A flush handed a compute slot must give it back even when it computes
// nothing: every request expired, the model cache failed, or every
// request was rejected for its generation. With one slot, a leak would
// wedge every other party, so another gate's Acquire must return at
// once afterwards.
func TestFlushReturnsHeldSlot(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	m, is, conn := rawFixture(t,
		Config{Tenants: []TenantConfig{cutTenant("alpha"), {Name: "unbuilt"}}, ComputeSlots: 1},
		InferConfig{})
	other := m.sched.register("test-other")
	acquireAtOnce := func(t *testing.T) {
		t.Helper()
		got := make(chan func(), 1)
		go func() { got <- other.Acquire() }()
		select {
		case release := <-got:
			release()
		case <-time.After(5 * time.Second):
			t.Fatal("Acquire blocked: a flush kept its compute slot")
		}
	}
	// Through the batcher: a lone request that finds the slot free is
	// flushed on it, so the gate counts one take that never waited.
	viaIdleSlot := func(t *testing.T, h wire.InferHeader, round uint32, want wire.ErrCode) {
		t.Helper()
		gate := is.serving[h.Tenant].gate
		before, _ := gate.stats()
		sendRaw(t, conn, h, round, 1)
		if code, _ := recvServeError(t, conn, round); code != want {
			t.Fatalf("code %v, want %v", code, want)
		}
		acquireAtOnce(t)
		if acquired, waited := gate.stats(); acquired != before+1 || waited != 0 {
			t.Fatalf("gate acquired %d→%d, waited %d: want one idle-slot take", before, acquired, waited)
		}
	}

	t.Run("cache-failed", func(t *testing.T) {
		viaIdleSlot(t, wire.InferHeader{Tenant: "unbuilt"}, 1, wire.CodeInternal)
	})
	t.Run("generation-mismatch", func(t *testing.T) {
		viaIdleSlot(t, wire.InferHeader{Tenant: "alpha", Generation: 7}, 2, wire.CodeGenerationMismatch)
	})
	t.Run("expired", func(t *testing.T) {
		// In the batcher, a request close enough to its deadline to
		// expire is urgent, and urgent batches flush before an idle slot
		// is tried. So hand flush one directly; the batcher is idle, and
		// its scratch is free.
		ts := is.serving["alpha"]
		release, ok := ts.gate.tryAcquire()
		if !ok {
			t.Fatal("compute slot not free")
		}
		s, p := transport.Pipe()
		defer s.Close()
		defer p.Close()
		j := &inferJob{conn: &lockedConn{c: s}, round: 3, deadline: time.Now().Add(-time.Millisecond),
			acts: tensor.New(1, 16), slot: ts.getSlot()}
		go ts.flush([]*inferJob{j}, release)
		if code, _ := recvServeError(t, p, 3); code != wire.CodeExpired {
			t.Fatalf("code %v, want expired", code)
		}
		acquireAtOnce(t)
	})
	if st := is.Stats(); st.Batches != 0 || st.Rejected != 3 {
		t.Fatalf("stats %+v: want three rejections and no forward", st)
	}
}

// The MsgHealth probe must answer with every tenant's state, and the
// state machine must move serving → draining on Close.
func TestHealthProbe(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, is, conn := rawFixture(t,
		Config{Tenants: []TenantConfig{cutTenant("alpha"), cutTenant("beta")}},
		InferConfig{})

	if err := conn.Send(&wire.Message{Type: wire.MsgHealth, Round: 9}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != wire.MsgHealth || m.Round != 9 {
		t.Fatalf("got %s round %d, want health round 9", m.Type, m.Round)
	}
	entries, err := wire.DecodeHealth(m.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Tenant != "alpha" || entries[1].Tenant != "beta" {
		t.Fatalf("health %+v, want alpha and beta in name order", entries)
	}
	for _, e := range entries {
		if e.State != wire.HealthServing {
			t.Fatalf("tenant %q state %v, want serving", e.Tenant, e.State)
		}
	}

	is.Close()
	for _, e := range is.Health() {
		if e.State != wire.HealthDraining {
			t.Fatalf("tenant %q state %v after Close, want draining", e.Tenant, e.State)
		}
	}
}

// Requests arriving after Close must be answered with a typed draining
// rejection, not a hang or a panic.
func TestRequestAfterCloseGetsDraining(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, is, conn := rawFixture(t,
		Config{Tenants: []TenantConfig{cutTenant("alpha")}}, InferConfig{})
	is.Close()
	sendRaw(t, conn, wire.InferHeader{Tenant: "alpha"}, 1, 1)
	code, _ := recvServeError(t, conn, 1)
	if code != wire.CodeDraining {
		t.Fatalf("code %v, want draining", code)
	}
}

// Admission racing Close: hammer the server with requests from several
// connections while Close runs. Every request must resolve — logits or
// a typed error — with no panic and no leaked batcher goroutine.
func TestAdmissionRacesClose(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	m, err := NewManager(Config{Tenants: []TenantConfig{cutTenant("alpha")}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	is, err := NewInferenceServer(m, InferConfig{BatchMax: 2, FlushEvery: time.Millisecond, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		s, p := transport.Pipe()
		go is.HandleConn(s)
		wg.Add(1)
		go func(w int, conn transport.Conn) {
			defer wg.Done()
			defer conn.Close()
			a := tensor.New(1, 16)
			for i := 0; i < 64; i++ {
				if err := conn.Send(&wire.Message{
					Type:    wire.MsgInferRequest,
					Round:   uint32(i + 1),
					Payload: wire.EncodeInferRequest(wire.InferHeader{Tenant: "alpha"}, a),
				}); err != nil {
					return // reader gone mid-close: acceptable
				}
				if _, err := conn.Recv(); err != nil {
					return
				}
			}
		}(w, p)
	}
	time.Sleep(2 * time.Millisecond)
	is.Close() // races the in-flight admissions
	wg.Wait()

	st := is.Stats()
	if st.Requests < 0 || st.Rejected < 0 {
		t.Fatalf("stats %+v", st)
	}
	// Idempotent double Close must be safe.
	is.Close()
}

// The checkpoint-reload breaker: a corrupt generation on disk degrades
// the tenant to its warm model (per-request mismatch rejections, no
// serving failure), trips after consecutive failures, and heals
// through its probe budget once the directory is repaired.
func TestCacheBreakerDegradesAndHeals(t *testing.T) {
	dir := t.TempDir()
	build := func() (*nn.Sequential, error) {
		m := models.MLP(16, []int{16}, 4, rng.New(3))
		_, back, err := models.Split(m.Net, m.DefaultCut)
		return back, err
	}
	c := &modelCache{name: "alpha", build: build, dir: dir}

	// Corrupt generation 3 on disk.
	if err := os.WriteFile(core.ServerSnapshotGenPath(dir, 3), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < breakerTripAfter; i++ {
		back, gen, err := c.ensure(3)
		if err != nil || back == nil || gen != 0 {
			t.Fatalf("ensure %d: back=%v gen=%d err=%v; corrupt checkpoint must degrade to warm gen 0", i, back != nil, gen, err)
		}
	}
	if _, open := c.state(); !open {
		t.Fatalf("breaker not open after %d consecutive reload failures", breakerTripAfter)
	}

	// While open, ensure serves warm without touching disk (the probe
	// budget counts down instead).
	for i := 0; i < breakerProbeEvery-1; i++ {
		if _, gen, err := c.ensure(3); err != nil || gen != 0 {
			t.Fatalf("breaker-open ensure: gen=%d err=%v", gen, err)
		}
	}
	if _, open := c.state(); !open {
		t.Fatal("breaker closed without a successful probe")
	}

	// Repair the directory: write a valid generation-3 snapshot.
	back, err := build()
	if err != nil {
		t.Fatal(err)
	}
	w := back.Params()[0].W.Data()
	for i := range w {
		w[i] += 1
	}
	snap := &core.Snapshot{Role: core.RoleServer, NextRound: 3}
	for _, p := range back.Params() {
		snap.Tensors = append(snap.Tensors, p.W.Clone())
	}
	for _, st := range nn.CollectState(back) {
		snap.Tensors = append(snap.Tensors, st.Clone())
	}
	if err := core.SaveSnapshotFile(core.ServerSnapshotGenPath(dir, 3), snap); err != nil {
		t.Fatal(err)
	}
	// Overwrite the corrupt bytes path? No — SaveSnapshotFile just did.
	// The next probe (the probe budget is spent) must heal the tenant.
	var healedGen uint32
	for i := 0; i < breakerProbeEvery+1; i++ {
		_, healedGen, err = c.ensure(3)
		if err != nil {
			t.Fatal(err)
		}
		if healedGen == 3 {
			break
		}
	}
	if healedGen != 3 {
		t.Fatalf("cache never healed to generation 3 after repair (gen %d)", healedGen)
	}
	if _, open := c.state(); open {
		t.Fatal("breaker still open after successful reload")
	}
}

// A reload that fails must leave the warm model byte-identical: the
// restore goes into a fresh model and swaps only on success.
func TestCacheReloadFailureLeavesWarmModelUntouched(t *testing.T) {
	dir := t.TempDir()
	build := func() (*nn.Sequential, error) {
		m := models.MLP(16, []int{16}, 4, rng.New(3))
		_, back, err := models.Split(m.Net, m.DefaultCut)
		return back, err
	}
	c := &modelCache{name: "alpha", build: build, dir: dir}
	warm, _, err := c.ensure(0)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float32(nil), warm.Params()[0].W.Data()...)

	// A snapshot whose tensors do not match the model shape: the
	// restore fails partway through a sequential tensor walk — exactly
	// the case that must not corrupt the warm model.
	snap := &core.Snapshot{Role: core.RoleServer, NextRound: 5}
	snap.Tensors = append(snap.Tensors, tensor.New(1, 1))
	if err := core.SaveSnapshotFile(core.ServerSnapshotGenPath(dir, 5), snap); err != nil {
		t.Fatal(err)
	}
	got, gen, err := c.ensure(5)
	if err != nil || gen != 0 {
		t.Fatalf("gen=%d err=%v, want degraded warm gen 0", gen, err)
	}
	if got != warm {
		t.Fatal("failed reload replaced the warm model")
	}
	after := warm.Params()[0].W.Data()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("warm weight %d changed across a failed reload: %v != %v", i, before[i], after[i])
		}
	}
}

// The client retry loop must recover a retryable remote rejection
// (draining here is retryable in general; overloaded is the common
// case) and report its stats, with deterministic seeded backoff.
func TestClientRetriesRetryableRejection(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s, p := transport.Pipe()
	defer s.Close()

	// A hand-rolled server: reject the first attempt as overloaded,
	// serve the second with a recognizable tensor payload.
	done := make(chan struct{})
	go func() {
		defer close(done)
		attempts := 0
		for {
			m, err := s.Recv()
			if err != nil {
				return
			}
			if m.Type == wire.MsgBye {
				return
			}
			attempts++
			if attempts == 1 {
				_ = s.Send(&wire.Message{
					Type: wire.MsgInferResponse, Round: m.Round,
					Payload: wire.EncodeServeError(wire.CodeOverloaded, 100*time.Microsecond, "queue full"),
				})
				continue
			}
			_ = s.Send(&wire.Message{
				Type: wire.MsgInferResponse, Round: m.Round,
				Payload: wire.EncodeTensors(tensor.FromSlice([]float32{1, 2}, 1, 2)),
			})
		}
	}()

	client := NewClient(p, nil, "alpha", 1)
	client.SetPolicy(RetryPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond, Seed: 7})
	y, err := client.Infer(tensor.FromSlice([]float32{1}, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if y.Dim(0) != 1 || y.Dim(1) != 2 {
		t.Fatalf("logits shape %v", y.Shape())
	}
	st := client.Stats()
	if st.Retries != 1 || st.Remote != 1 || st.Attempts != 2 {
		t.Fatalf("stats %+v: want one rejected attempt and one retry", st)
	}
	client.Close()
	<-done
}

// Non-retryable rejections must fail immediately, without burning the
// retry budget.
func TestClientDoesNotRetryNonRetryable(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s, p := transport.Pipe()
	defer s.Close()
	served := 0
	go func() {
		for {
			m, err := s.Recv()
			if err != nil || m.Type == wire.MsgBye {
				return
			}
			served++
			_ = s.Send(&wire.Message{
				Type: wire.MsgInferResponse, Round: m.Round,
				Payload: wire.EncodeServeError(wire.CodeUnknownTenant, 0, "ghost"),
			})
		}
	}()
	client := NewClient(p, nil, "ghost", 1)
	client.SetPolicy(RetryPolicy{MaxAttempts: 5, Backoff: 100 * time.Microsecond, Seed: 7})
	_, err := client.Infer(tensor.FromSlice([]float32{1}, 1, 1))
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != wire.CodeUnknownTenant {
		t.Fatalf("err = %v, want unknown-tenant RemoteError", err)
	}
	if st := client.Stats(); st.Attempts != 1 {
		t.Fatalf("stats %+v: non-retryable rejection must not be retried", st)
	}
	client.Close()
}

// A timed-out attempt must fail over through the redial closure and
// succeed on the replacement connection.
func TestClientTimeoutFailsOverViaRedial(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	// First server: swallows requests (never answers).
	s1, p1 := transport.Pipe()
	go func() {
		for {
			if _, err := s1.Recv(); err != nil {
				return
			}
		}
	}()
	// Second server: answers everything.
	s2, p2 := transport.Pipe()
	go func() {
		for {
			m, err := s2.Recv()
			if err != nil || m.Type == wire.MsgBye {
				return
			}
			_ = s2.Send(&wire.Message{
				Type: wire.MsgInferResponse, Round: m.Round,
				Payload: wire.EncodeTensors(tensor.FromSlice([]float32{7}, 1, 1)),
			})
		}
	}()
	defer s1.Close()
	defer s2.Close()

	client := NewClient(p1, nil, "alpha", 1)
	client.SetPolicy(RetryPolicy{Timeout: 20 * time.Millisecond, MaxAttempts: 3, Backoff: 100 * time.Microsecond, Seed: 7})
	dials := 0
	client.SetRedial(func() (transport.Conn, error) {
		dials++
		return p2, nil
	})
	y, err := client.Infer(tensor.FromSlice([]float32{1}, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if y.Data()[0] != 7 {
		t.Fatalf("logits %v, want the second server's answer", y.Data())
	}
	st := client.Stats()
	if st.Timeouts != 1 || st.Redials != 1 || dials != 1 {
		t.Fatalf("stats %+v dials %d: want one timeout and one failover redial", st, dials)
	}
	client.Close()
}

// An exhausted retry budget surfaces the typed timeout, not a hang.
func TestClientExhaustsRetryBudget(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s, p := transport.Pipe()
	go func() {
		for {
			if _, err := s.Recv(); err != nil {
				return
			}
		}
	}()
	defer s.Close()
	client := NewClient(p, nil, "alpha", 1)
	client.SetPolicy(RetryPolicy{Timeout: 10 * time.Millisecond, MaxAttempts: 2, Backoff: 100 * time.Microsecond, Seed: 7})
	_, err := client.Infer(tensor.FromSlice([]float32{1}, 1, 1))
	if !errors.Is(err, ErrAttemptTimeout) {
		t.Fatalf("err = %v, want ErrAttemptTimeout after budget exhaustion", err)
	}
	if st := client.Stats(); st.Timeouts != 2 || st.Attempts != 2 {
		t.Fatalf("stats %+v", st)
	}
	client.Close()
}

// A hedged attempt must fire after the hedge delay and win when the
// primary's response is slower; the primary's late answer is dropped
// as a stale round, not misdelivered.
func TestClientHedgedRequestWins(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s, p := transport.Pipe()
	defer s.Close()
	go func() {
		first := true
		for {
			m, err := s.Recv()
			if err != nil || m.Type == wire.MsgBye {
				return
			}
			if first {
				first = false
				continue // never answer the primary attempt
			}
			_ = s.Send(&wire.Message{
				Type: wire.MsgInferResponse, Round: m.Round,
				Payload: wire.EncodeTensors(tensor.FromSlice([]float32{9}, 1, 1)),
			})
		}
	}()
	client := NewClient(p, nil, "alpha", 1)
	client.SetPolicy(RetryPolicy{HedgeAfter: 10 * time.Millisecond, Seed: 7})
	y, err := client.Infer(tensor.FromSlice([]float32{1}, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if y.Data()[0] != 9 {
		t.Fatalf("logits %v, want the hedge's answer", y.Data())
	}
	if st := client.Stats(); st.Hedges != 1 {
		t.Fatalf("stats %+v: want one hedge", st)
	}
	client.Close()
}

// Seeded retry schedules must be reproducible: two clients with the
// same policy seed observe identical jittered backoff sequences.
func TestRetryBackoffDeterministicUnderSeed(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		c := &Client{}
		c.SetPolicy(RetryPolicy{MaxAttempts: 5, Backoff: time.Millisecond, Seed: seed})
		var out []time.Duration
		for attempt := 1; attempt < 5; attempt++ {
			d := c.policy.Backoff << (attempt - 1)
			if d > c.policy.MaxBackoff || d <= 0 {
				d = c.policy.MaxBackoff
			}
			out = append(out, time.Duration(float64(d)*(0.5+c.jitter.Float64())))
		}
		return out
	}
	a, b := schedule(11), schedule(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff %d: %v != %v under the same seed", i, a[i], b[i])
		}
	}
	cDiff := schedule(12)
	same := true
	for i := range a {
		if a[i] != cDiff[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter — jitter is not seeded")
	}
}
