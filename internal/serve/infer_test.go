package serve

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"medsplit/internal/core"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
)

const (
	inferIn      = 24
	inferClasses = 4
)

// inferTenant is a TenantConfig whose back half builds from seed.
func inferTenant(name string, seed uint64, dir string) TenantConfig {
	return TenantConfig{
		Name: name,
		BuildBack: func() (*nn.Sequential, error) {
			m := models.MLP(inferIn, []int{32}, inferClasses, rng.New(seed))
			_, back, err := models.Split(m.Net, m.DefaultCut)
			return back, err
		},
		CheckpointDir: dir,
	}
}

// inferFixture stands up a Manager + InferenceServer with one compute
// slot and returns a dialer that opens one served client connection.
func inferFixture(t *testing.T, cfg InferConfig, tenants ...TenantConfig) (dial func() transport.Conn, is *InferenceServer) {
	t.Helper()
	return inferFixtureSlots(t, 1, cfg, tenants...)
}

// inferFixtureSlots is inferFixture with the given number of compute
// slots, which is also each tenant's lane count.
func inferFixtureSlots(t *testing.T, slots int, cfg InferConfig, tenants ...TenantConfig) (dial func() transport.Conn, is *InferenceServer) {
	t.Helper()
	m, err := NewManager(Config{Tenants: tenants, ComputeSlots: slots})
	if err != nil {
		t.Fatal(err)
	}
	is, err = NewInferenceServer(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var conns []transport.Conn
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
		is.Close()
		m.Close()
	})
	return func() transport.Conn {
		s, p := transport.Pipe()
		conns = append(conns, s, p)
		go is.HandleConn(s)
		return p
	}, is
}

// clientFront builds the front half matching inferTenant's seed.
func clientFront(t *testing.T, seed uint64) *nn.Sequential {
	t.Helper()
	m := models.MLP(inferIn, []int{32}, inferClasses, rng.New(seed))
	front, _, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	return front
}

// localForward is the reference computation: the whole model run in
// one process, inference mode.
func localForward(t *testing.T, seed uint64, x *tensor.Tensor, mutateBack func(*nn.Sequential)) *tensor.Tensor {
	t.Helper()
	m := models.MLP(inferIn, []int{32}, inferClasses, rng.New(seed))
	front, back, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	if mutateBack != nil {
		mutateBack(back)
	}
	return back.Forward(front.Forward(x, false), false)
}

func randInput(rows int, seed uint64) *tensor.Tensor {
	x := tensor.New(rows, inferIn)
	r := rng.New(seed)
	data := x.Data()
	for i := range data {
		data[i] = r.NormFloat32()
	}
	return x
}

func wantExact(t *testing.T, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
	}
	g, w := got.Data(), want.Data()
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("logit %d: %v != %v (split inference must be bit-identical to local forward)", i, g[i], w[i])
		}
	}
}

// Split inference through the serving tier must be bit-identical to
// running the whole model locally: the cut relocates compute, nothing
// else.
func TestInferMatchesLocalForward(t *testing.T) {
	dial, _ := inferFixture(t, InferConfig{}, inferTenant("alpha", 5, ""))
	client := NewClient(dial(), clientFront(t, 5), "alpha", 1)
	x := randInput(3, 77)
	got, err := client.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantExact(t, got, localForward(t, 5, x, nil))
}

// holdSlot takes every one of the fixture's compute slots for a
// test-owned gate, so the batcher finds compute busy and holds its
// batches. The returned func gives the slots back; cleanup does too, if
// the test failed first.
func holdSlot(t *testing.T, is *InferenceServer) (giveBack func()) {
	t.Helper()
	hold := is.m.sched.register("test-hold")
	releases := make([]func(), is.m.cfg.ComputeSlots)
	for i := range releases {
		release, ok := hold.tryAcquire()
		if !ok {
			t.Fatal("fixture's compute slots are not free")
		}
		releases[i] = release
	}
	var once sync.Once
	giveBack = func() {
		once.Do(func() {
			for _, release := range releases {
				release()
			}
			is.m.sched.unregister(hold)
		})
	}
	t.Cleanup(giveBack)
	return giveBack
}

// inferAll starts one alpha client per input, each on its own
// connection; wait blocks until all are answered and returns the logits
// in input order.
func inferAll(t *testing.T, dial func() transport.Conn, xs []*tensor.Tensor) (wait func() []*tensor.Tensor) {
	t.Helper()
	got := make([]*tensor.Tensor, len(xs))
	errs := make([]error, len(xs))
	var wg sync.WaitGroup
	for i := range xs {
		client := NewClient(dial(), clientFront(t, 5), "alpha", uint32(i))
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			y, err := c.Infer(xs[i])
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = y.Clone()
		}(i, client)
	}
	return func() []*tensor.Tensor {
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("requests unanswered: a batch is held beside a free slot")
		}
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		return got
	}
}

// Two requests fused into one server-side batch must each get the same
// logits as a batch-of-one round trip: batched rows are independent
// through the back half, which is what makes dynamic batching
// transparent to clients.
func TestBatchedInferenceMatchesSingle(t *testing.T) {
	forSlots(t, func(t *testing.T, slots int) {
		// BatchMax 2, an hour-long timer and every slot held: the
		// batcher can flush only once both requests share one batch.
		dial, is := inferFixtureSlots(t, slots, InferConfig{BatchMax: 2, FlushEvery: time.Hour}, inferTenant("alpha", 5, ""))
		giveBack := holdSlot(t, is)
		xs := []*tensor.Tensor{randInput(1, 101), randInput(1, 102)}
		wait := inferAll(t, dial, xs)
		// The batcher is parked in Acquire only once BatchMax flushed the pair.
		waitPending(t, is.m.sched, is.serving["alpha"].gate)
		giveBack()
		got := wait()
		for i := range xs {
			wantExact(t, got[i], localForward(t, 5, xs[i], nil))
		}
		if st := is.Stats(); st.Batches != 1 || st.Requests != 2 {
			t.Fatalf("stats %+v: want both requests served by one fused batch", st)
		}
	})
}

// While compute is busy, a lone request must not wait for a full batch:
// the FlushEvery timer flushes whatever has accumulated.
func TestDeadlineFlushesPartialBatch(t *testing.T) {
	dial, is := inferFixture(t, InferConfig{BatchMax: 1 << 20, FlushEvery: 3 * time.Millisecond},
		inferTenant("alpha", 5, ""))
	giveBack := holdSlot(t, is)
	x := randInput(2, 103)
	wait := inferAll(t, dial, []*tensor.Tensor{x})
	// BatchMax is out of reach and the request has no deadline, so only
	// the timer can have started the flush now parked in Acquire.
	waitPending(t, is.m.sched, is.serving["alpha"].gate)
	giveBack()
	wantExact(t, wait()[0], localForward(t, 5, x, nil))
	if st := is.Stats(); st.Batches != 1 {
		t.Fatalf("stats %+v: want exactly one timer-flushed batch", st)
	}
}

// A lone request that finds the compute slot free runs at once: with an
// hour-long timer and an unreachable BatchMax, only the idle-slot flush
// can answer it.
func TestIdleSlotFlushesWithoutTimer(t *testing.T) {
	dial, is := inferFixture(t, InferConfig{BatchMax: 1 << 20, FlushEvery: time.Hour},
		inferTenant("alpha", 5, ""))
	x := randInput(2, 104)
	wantExact(t, inferAll(t, dial, []*tensor.Tensor{x})()[0], localForward(t, 5, x, nil))
	if st := is.Stats(); st.Batches != 1 {
		t.Fatalf("stats %+v: want exactly one idle-slot batch", st)
	}
	if acquired, waited := is.serving["alpha"].gate.stats(); acquired != 1 || waited != 0 {
		t.Fatalf("gate acquired %d, waited %d: want one take that never waited", acquired, waited)
	}
}

// While every slot is busy the batcher still batches: requests fuse into
// one forward, and BatchMax still splits them. Six one-row requests
// against BatchMax 4: four fill the first batch, which parks in Acquire
// with the other two queued; once the slot frees, those two are pulled
// together and flush on it.
func TestBusySlotsStillBatch(t *testing.T) {
	dial, is := inferFixture(t, InferConfig{BatchMax: 4, FlushEvery: time.Hour}, inferTenant("alpha", 5, ""))
	giveBack := holdSlot(t, is)
	xs := make([]*tensor.Tensor, 6)
	for i := range xs {
		xs[i] = randInput(1, uint64(110+i))
	}
	wait := inferAll(t, dial, xs)
	ts := is.serving["alpha"]
	waitPending(t, is.m.sched, ts.gate)
	for len(ts.jobs) < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	giveBack()
	got := wait()
	for i := range xs {
		wantExact(t, got[i], localForward(t, 5, xs[i], nil))
	}
	if st := is.Stats(); st.Batches != 2 || st.Requests != 6 {
		t.Fatalf("stats %+v: want a 4-row batch and a 2-row batch", st)
	}
}

func TestUnknownTenantRejected(t *testing.T) {
	dial, is := inferFixture(t, InferConfig{}, inferTenant("alpha", 5, ""))
	client := NewClient(dial(), clientFront(t, 5), "ghost", 1)
	_, err := client.Infer(randInput(1, 104))
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if want := ErrUnknownTenant.Error(); !contains(remote.Msg, want) {
		t.Fatalf("remote message %q does not carry %q", remote.Msg, want)
	}
	if st := is.Stats(); st.Rejected != 1 {
		t.Fatalf("stats %+v: want one rejection", st)
	}
}

// A client pinned to a generation the tenant cannot serve must be
// rejected per-request, while unpinned traffic keeps flowing.
func TestGenerationMismatchRejected(t *testing.T) {
	dial, _ := inferFixture(t, InferConfig{}, inferTenant("alpha", 5, ""))
	client := NewClient(dial(), clientFront(t, 5), "alpha", 1)
	client.SetGeneration(7) // no checkpoint dir: the tenant serves generation 0 forever
	_, err := client.Infer(randInput(1, 105))
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if want := ErrGenerationMismatch.Error(); !contains(remote.Msg, want) {
		t.Fatalf("remote message %q does not carry %q", remote.Msg, want)
	}
	client.SetGeneration(0)
	if _, err := client.Infer(randInput(1, 106)); err != nil {
		t.Fatalf("unpinned request after mismatch: %v", err)
	}
}

// mutatedBack shifts the back half's first parameter — the stand-in
// for "training moved the weights" when faking a checkpoint.
func mutatedBack(back *nn.Sequential) {
	w := back.Params()[0].W.Data()
	for i := range w {
		w[i] += 1
	}
}

// The warm cache must roll forward to a newer checkpoint generation
// when a request pins it, serve it to unpinned traffic afterwards, and
// reject requests pinned to superseded generations.
func TestCacheRollsForwardByGeneration(t *testing.T) {
	dir := t.TempDir()
	dial, _ := inferFixture(t, InferConfig{}, inferTenant("alpha", 5, dir))
	client := NewClient(dial(), clientFront(t, 5), "alpha", 1)
	x := randInput(2, 107)

	// Generation 0: BuildBack's initial weights.
	got, err := client.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantExact(t, got, localForward(t, 5, x, nil))

	// Write a generation-3 checkpoint with shifted weights, as a
	// training session would (weights + state, optimizer tail omitted —
	// RestoreServerModel ignores it).
	m := models.MLP(inferIn, []int{32}, inferClasses, rng.New(5))
	_, snapBack, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	mutatedBack(snapBack)
	snap := &core.Snapshot{Role: core.RoleServer, NextRound: 3}
	for _, p := range snapBack.Params() {
		snap.Tensors = append(snap.Tensors, p.W.Clone())
	}
	for _, st := range nn.CollectState(snapBack) {
		snap.Tensors = append(snap.Tensors, st.Clone())
	}
	if err := core.SaveSnapshotFile(core.ServerSnapshotGenPath(dir, 3), snap); err != nil {
		t.Fatal(err)
	}

	// Pinning generation 3 rolls the cache forward.
	client.SetGeneration(3)
	got, err = client.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantExact(t, got, localForward(t, 5, x, mutatedBack))

	// Unpinned traffic now rides the new generation.
	client.SetGeneration(0)
	got, err = client.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantExact(t, got, localForward(t, 5, x, mutatedBack))

	// A stale pin is a per-request rejection.
	client.SetGeneration(2)
	_, err = client.Infer(x)
	var remote *RemoteError
	if !errors.As(err, &remote) || !contains(remote.Msg, "generation") {
		t.Fatalf("stale pin: err = %v, want generation-mismatch RemoteError", err)
	}
}

// Requests for different tenants arriving on one connection must be
// served by their own models.
func TestTwoTenantsShareOneConnection(t *testing.T) {
	dial, _ := inferFixture(t, InferConfig{},
		inferTenant("alpha", 5, ""), inferTenant("beta", 9, ""))
	conn := dial()
	// Sequential requests on one conn, alternating tenants.
	alpha := NewClient(conn, clientFront(t, 5), "alpha", 1)
	x := randInput(2, 108)
	got, err := alpha.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantExact(t, got, localForward(t, 5, x, nil))

	beta := NewClient(conn, clientFront(t, 9), "beta", 1)
	got, err = beta.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantExact(t, got, localForward(t, 9, x, nil))
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
