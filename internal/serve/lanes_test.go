package serve

import (
	"fmt"
	"testing"
	"time"

	"medsplit/internal/core"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// forSlots runs fn as one subtest per compute-slot count: one lane per
// tenant, and two.
func forSlots(t *testing.T, fn func(t *testing.T, slots int)) {
	for _, slots := range []int{1, 2} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) { fn(t, slots) })
	}
}

// probeSentinel, as a request's first activation, marks the request
// that pins a lane.
const probeSentinel = 1234.5

// laneProbe is a pass-through layer that tests put first in a back
// half. A sentinel request's forward waits inside it until another
// forward enters it, or for wait, and reports which happened: it holds
// one lane busy so that the next batch must run on another, and it
// shows whether the two forward passes overlapped. Every lane shares
// the one probe.
type laneProbe struct {
	wait    time.Duration
	holding chan struct{} // a sentinel forward is waiting
	entered chan struct{} // another forward entered
	overlap chan bool     // the sentinel forward's outcome
}

func newLaneProbe() *laneProbe {
	return &laneProbe{
		wait:    5 * time.Second,
		holding: make(chan struct{}, 1),
		entered: make(chan struct{}, 1),
		overlap: make(chan bool, 1),
	}
}

func (p *laneProbe) Name() string                           { return "probe" }
func (p *laneProbe) Params() []*nn.Param                    { return nil }
func (p *laneProbe) Backward(*tensor.Tensor) *tensor.Tensor { panic("probe: inference only") }
func (p *laneProbe) Replica() nn.Layer                      { return p }

func (p *laneProbe) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Data()[0] != probeSentinel {
		select {
		case p.entered <- struct{}{}:
		default:
		}
		return x
	}
	select {
	case <-p.entered: // stale: before the sentinel arrived
	default:
	}
	p.holding <- struct{}{}
	select {
	case <-p.entered:
		p.overlap <- true
	case <-time.After(p.wait):
		p.overlap <- false
	}
	return x
}

// opaqueProbe is a laneProbe that nn.Replica cannot copy.
type opaqueProbe struct{ p *laneProbe }

func (o opaqueProbe) Name() string                             { return o.p.Name() }
func (o opaqueProbe) Params() []*nn.Param                      { return nil }
func (o opaqueProbe) Backward(g *tensor.Tensor) *tensor.Tensor { return o.p.Backward(g) }
func (o opaqueProbe) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return o.p.Forward(x, train)
}

// probedTenant is tc with p put in front of its back half. The probe
// has no parameters, so checkpoints of the plain back half restore
// into it.
func probedTenant(tc TenantConfig, p nn.Layer) TenantConfig {
	build := tc.BuildBack
	tc.BuildBack = func() (*nn.Sequential, error) {
		back, err := build()
		if err != nil {
			return nil, err
		}
		return nn.NewSequential("probed", p, back), nil
	}
	return tc
}

// pinLane sends a sentinel request for alpha (built from seed 5) on a
// connection of its own, pinned to generation gen, and returns once
// its forward holds a lane. done waits for the sentinel's answer and
// reports whether another forward entered the probe meanwhile.
func pinLane(t *testing.T, dial func() transport.Conn, p *laneProbe, gen uint32) (done func() bool) {
	t.Helper()
	conn := dial()
	acts := tensor.New(1, clientFront(t, 5).Forward(randInput(1, 1), false).Dim(1))
	acts.Data()[0] = probeSentinel
	if err := conn.Send(&wire.Message{
		Type:    wire.MsgInferRequest,
		Round:   1,
		Payload: wire.EncodeInferRequest(wire.InferHeader{Tenant: "alpha", Generation: gen}, acts),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.holding:
	case <-time.After(5 * time.Second):
		t.Fatal("the sentinel request never reached the forward pass")
	}
	// Read the answer as soon as it comes: an unread pipe would hold the
	// sentinel's lane busy in its send.
	answer := make(chan error, 1)
	go func() {
		m, err := conn.Recv()
		if err == nil {
			if _, _, msg, derr := wire.DecodeServeError(m.Payload); derr == nil {
				err = fmt.Errorf("sentinel request rejected: %s", msg)
			}
		}
		answer <- err
	}()
	return func() bool {
		t.Helper()
		if err := <-answer; err != nil {
			t.Fatal(err)
		}
		return <-p.overlap
	}
}

// inferOnLastLane serves x for tc (alpha, built from seed 5) through a
// fixture with the given slot count. With two slots a sentinel request
// pins lane 0 first, so x runs on lane 1, through a replica of the
// tenant's serving view, and must overlap the sentinel's forward.
func inferOnLastLane(t *testing.T, slots int, tc TenantConfig, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	p := newLaneProbe()
	dial, _ := inferFixtureSlots(t, slots, InferConfig{}, probedTenant(tc, p))
	var done func() bool
	if slots > 1 {
		done = pinLane(t, dial, p, 0)
	}
	got, err := NewClient(dial(), clientFront(t, 5), tc.Name, 1).Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if done != nil && !done() {
		t.Fatal("the request did not run beside the pinned lane")
	}
	return got
}

// writeGeneration saves a server checkpoint of generation gen for the
// tenant built from seed 5, with mutatedBack's weights.
func writeGeneration(t *testing.T, dir string, gen int) {
	t.Helper()
	m := models.MLP(inferIn, []int{32}, inferClasses, rng.New(5))
	_, back, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	mutatedBack(back)
	snap := &core.Snapshot{Role: core.RoleServer, NextRound: gen}
	for _, p := range back.Params() {
		snap.Tensors = append(snap.Tensors, p.W.Clone())
	}
	for _, st := range nn.CollectState(back) {
		snap.Tensors = append(snap.Tensors, st.Clone())
	}
	if err := core.SaveSnapshotFile(core.ServerSnapshotGenPath(dir, gen), snap); err != nil {
		t.Fatal(err)
	}
}

// A batch held for want of a slot flushes as soon as another party
// gives one back: with an hour-long timer and an unreachable BatchMax,
// only that wake-up can answer the request.
func TestHeldBatchWakesOnSlotRelease(t *testing.T) {
	dial, is := inferFixture(t, InferConfig{BatchMax: 1 << 20, FlushEvery: time.Hour},
		inferTenant("alpha", 5, ""))
	giveBack := holdSlot(t, is)
	client := NewClient(dial(), clientFront(t, 5), "alpha", 1)
	x := randInput(2, 120)
	type result struct {
		y   *tensor.Tensor
		err error
	}
	res := make(chan result, 1)
	go func() {
		y, err := client.Infer(x)
		if err == nil {
			y = y.Clone()
		}
		res <- result{y, err}
	}()
	// Let the batcher pull the request, find no slot, and hold it.
	ts := is.serving["alpha"]
	for is.Stats().Requests == 0 || len(ts.jobs) > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(10 * time.Millisecond)
	giveBack()
	select {
	case r := <-res:
		if r.err != nil {
			t.Fatal(r.err)
		}
		wantExact(t, r.y, localForward(t, 5, x, nil))
	case <-time.After(time.Second):
		t.Fatal("the held batch was not answered within 1 s of the slot's release")
	}
}

// With two slots, one tenant runs two batches' forward passes at once:
// the sentinel's forward waits inside the probe until the second
// request's forward enters it.
func TestLanesOverlapForwards(t *testing.T) {
	p := newLaneProbe()
	dial, is := inferFixtureSlots(t, 2, InferConfig{}, probedTenant(inferTenant("alpha", 5, ""), p))
	done := pinLane(t, dial, p, 0)
	x := randInput(2, 121)
	got, err := NewClient(dial(), clientFront(t, 5), "alpha", 1).Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantExact(t, got, localForward(t, 5, x, nil))
	if !done() {
		t.Fatal("no second forward entered while the first was in its forward pass")
	}
	if st := is.Stats(); st.Batches != 2 {
		t.Fatalf("stats %+v: want two batches", st)
	}
	if n := len(is.serving["alpha"].lanes); n != 2 {
		t.Fatalf("%d lanes, want 2", n)
	}
}

// A lane's replica follows the cache's generation. Lane 1 is built at
// generation 0; then a pinned sentinel rolls the cache to generation 3
// on lane 0, and a request pinned to 3 runs on lane 1, which must serve
// the new weights.
func TestLaneFollowsGenerationRoll(t *testing.T) {
	dir := t.TempDir()
	p := newLaneProbe()
	dial, is := inferFixtureSlots(t, 2, InferConfig{}, probedTenant(inferTenant("alpha", 5, dir), p))
	client := NewClient(dial(), clientFront(t, 5), "alpha", 1)
	x := randInput(2, 122)

	done := pinLane(t, dial, p, 0)
	got, err := client.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantExact(t, got, localForward(t, 5, x, nil))
	if !done() {
		t.Fatal("generation 0: the request did not run beside the pinned lane")
	}
	ts := is.serving["alpha"]
	for _, l := range ts.lanes {
		for l.busy.Load() {
			time.Sleep(100 * time.Microsecond)
		}
	}

	writeGeneration(t, dir, 3)
	done = pinLane(t, dial, p, 3)
	client.SetGeneration(3)
	got, err = client.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantExact(t, got, localForward(t, 5, x, mutatedBack))
	if !done() {
		t.Fatal("generation 3: the request did not run beside the pinned lane")
	}
	model, gen, err := ts.t.cache.ensure(0)
	if err != nil || gen != 3 {
		t.Fatalf("cache at generation %d (%v), want 3", gen, err)
	}
	for _, l := range ts.lanes {
		if l.src != model {
			t.Fatalf("lane %d follows a superseded model", l.idx)
		}
	}
}

// A back half that nn.Replica cannot copy is served on lane 0 alone:
// the second batch waits for the pinned lane instead of failing, and
// is answered bit for bit once the sentinel's forward gives up.
func TestLaneFallsBackWithoutReplica(t *testing.T) {
	p := newLaneProbe()
	p.wait = 200 * time.Millisecond
	dial, is := inferFixtureSlots(t, 2, InferConfig{}, probedTenant(inferTenant("alpha", 5, ""), opaqueProbe{p}))
	done := pinLane(t, dial, p, 0)
	x := randInput(2, 123)
	got, err := NewClient(dial(), clientFront(t, 5), "alpha", 1).Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	wantExact(t, got, localForward(t, 5, x, nil))
	if done() {
		t.Fatal("two forwards overlapped on a back half without a replica")
	}
	if ts := is.serving["alpha"]; !ts.solo {
		t.Fatal("the tenant did not fall back to lane 0")
	}
}
