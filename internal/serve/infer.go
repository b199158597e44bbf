package serve

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"medsplit/internal/nn"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// InferConfig configures the inference tier's batching.
type InferConfig struct {
	// BatchMax flushes a tenant's pending batch once its accumulated
	// row count (samples, not requests) reaches this. Defaults to 8.
	BatchMax int
	// FlushEvery is how long a batch waits for more requests while
	// compute is busy. A request that finds a compute slot and one of
	// its tenant's lanes free, and nothing else queued for its tenant,
	// is flushed at once and never starts the clock. Otherwise the
	// clock starts when the batch is first held, and whatever has
	// accumulated when it fires is flushed; a slot or lane freeing
	// first flushes it sooner. The bound is on the flush, not on
	// compute: a flushed batch still waits for one of its tenant's
	// lanes and for a slot in the compute scheduler (round robin over
	// every tenant's batcher, at most one lap of the ring), so a
	// request's compute starts within FlushEvery plus those waits.
	// Defaults to 2ms.
	FlushEvery time.Duration
	// QueueCap bounds a tenant's pending request queue. Arrivals beyond
	// it are refused with ErrOverloaded (carrying a retry-after hint)
	// instead of buffered or blocked on: deterministic load shedding,
	// so one tenant's burst degrades into fast typed rejections rather
	// than unbounded queueing or a stalled connection reader.
	// Defaults to 256.
	QueueCap int
}

func (c *InferConfig) withDefaults() InferConfig {
	out := *c
	if out.BatchMax <= 0 {
		out.BatchMax = 8
	}
	if out.FlushEvery <= 0 {
		out.FlushEvery = 2 * time.Millisecond
	}
	if out.QueueCap <= 0 {
		out.QueueCap = 256
	}
	return out
}

// InferenceServer answers MsgInferRequest traffic for every tenant of
// a Manager: platforms run the front half of their tenant's model
// locally and ship cut-layer activations; the server batches them,
// runs the back half under the shared compute gate, and returns
// logits. Each tenant has one batcher goroutine, which forms and admits
// batches, and up to Config.ComputeSlots compute lanes, which run them:
// the batcher takes a compute slot and hands the batch to an idle lane,
// which runs the forward pass on its own copy of the back half, gives
// the slot back, then answers the batch's requests. Meanwhile the
// batcher fills the next batch, so one tenant can use every free slot.
// Lanes, decode slots and scratch belong to one tenant, so tenants never
// contend on (or leak into) each other's memory.
//
// Batching is work-conserving: a request that arrives while a compute
// slot and a lane are free and nothing else is queued for its tenant
// runs at once, together with whatever its batch already holds. Only
// while every slot (or every one of the tenant's lanes) is busy does a
// batch accumulate, up to BatchMax rows or the FlushEvery timer, and a
// held batch is woken as soon as a slot is banked or a lane finishes.
// So batching costs latency only when it can buy throughput.
//
// Overload and failure containment (the robustness contract):
//
//   - Admission is bounded per tenant (QueueCap) and sheds
//     deterministically: a full queue answers CodeOverloaded with a
//     retry-after hint, never blocks the connection reader.
//   - Requests carry a deadline budget (wire.InferHeader). Work whose
//     deadline has passed is shed before compute — at admission and
//     again at flush — with CodeExpired, so an overloaded tenant
//     spends its compute only on answers somebody is still waiting
//     for. A request whose remaining budget cannot survive the full
//     FlushEvery wait flushes the batch immediately instead.
//   - Every tenant exposes a health state (serving / degraded /
//     draining) through the MsgHealth probe; degraded means the
//     checkpoint-reload breaker is open or the queue is more than
//     half full.
//   - All rejections are structured error payloads (code +
//     retry-after + message), so clients retry exactly the conditions
//     that can clear and fail fast on the ones that cannot.
type InferenceServer struct {
	m       *Manager
	cfg     InferConfig
	serving map[string]*tenantServing // immutable after New

	wg        sync.WaitGroup
	closeOnce sync.Once

	requests atomic.Int64 // requests admitted to a batcher
	rejected atomic.Int64 // requests answered with an error payload
	shed     atomic.Int64 // of rejected: queue-full (CodeOverloaded)
	expired  atomic.Int64 // of rejected: deadline passed (CodeExpired)
	batches  atomic.Int64 // back-half forwards executed
}

// InferStats is a point-in-time view of the inference tier.
type InferStats struct {
	Requests int64 // requests admitted to batching
	Rejected int64 // requests rejected (all causes)
	Shed     int64 // of Rejected: refused at a full admission queue
	Expired  int64 // of Rejected: deadline passed before compute
	Batches  int64 // back-half forwards (Requests/Batches = achieved batching factor)
}

// NewInferenceServer builds the inference tier over m's tenants and
// starts one batcher per tenant. Close releases them.
func NewInferenceServer(m *Manager, cfg InferConfig) (*InferenceServer, error) {
	is := &InferenceServer{
		m:       m,
		cfg:     cfg.withDefaults(),
		serving: make(map[string]*tenantServing, len(m.tenants)),
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	tenants := make([]*tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		tenants = append(tenants, t)
	}
	m.mu.Unlock()
	for _, t := range tenants {
		ts := &tenantServing{
			is:   is,
			t:    t,
			gate: m.sched.register("infer:" + t.cfg.Name),
			jobs: make(chan *inferJob, is.cfg.QueueCap),
		}
		is.serving[t.cfg.Name] = ts
		is.wg.Add(1)
		go ts.run()
	}
	return is, nil
}

// Close stops every tenant batcher and its lanes after draining its
// queue and unregisters their compute gates. Connection readers (HandleConn)
// are owned by their callers; requests arriving after Close are
// answered with CodeDraining.
func (is *InferenceServer) Close() {
	is.closeOnce.Do(func() {
		for _, ts := range is.serving {
			ts.closeMu.Lock()
			ts.closed = true
			ts.closeMu.Unlock()
			close(ts.jobs)
		}
		is.wg.Wait()
		for _, ts := range is.serving {
			is.m.sched.unregister(ts.gate)
		}
	})
}

// Stats reports the tier's counters.
func (is *InferenceServer) Stats() InferStats {
	return InferStats{
		Requests: is.requests.Load(),
		Rejected: is.rejected.Load(),
		Shed:     is.shed.Load(),
		Expired:  is.expired.Load(),
		Batches:  is.batches.Load(),
	}
}

// Health snapshots every tenant's serving state, sorted by tenant
// name so the probe payload is deterministic. This is what MsgHealth
// answers with; it is also the local observability surface.
func (is *InferenceServer) Health() []wire.TenantHealth {
	names := make([]string, 0, len(is.serving))
	for name := range is.serving {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]wire.TenantHealth, 0, len(names))
	for _, name := range names {
		out = append(out, is.serving[name].health())
	}
	return out
}

// lockedConn serializes writes to one connection: a connection may
// carry requests for several tenants, whose lanes respond concurrently.
type lockedConn struct {
	mu sync.Mutex
	c  transport.Conn
}

func (lc *lockedConn) send(m *wire.Message) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.c.Send(m)
}

// inferJob is one decoded request waiting in a tenant's batch.
type inferJob struct {
	conn     *lockedConn
	platform uint32
	round    uint32    // client's attempt sequence, echoed on the response
	reqID    uint64    // client's logical request id (diagnostics; hedged attempts share it)
	gen      uint32    // requested checkpoint generation (0 = any)
	deadline time.Time // zero = no deadline
	acts     *tensor.Tensor
	slot     []*tensor.Tensor // decode slot owning acts; recycled after the response
}

// HandleConn serves one client connection: it reads requests until the
// peer says Bye or the connection drops, routing each to its tenant's
// batcher; MsgHealth probes are answered inline with the tenant-state
// snapshot. Responses are written by the tenants' lanes and batchers
// (through a per-connection send lock), so a slow tenant never blocks
// another tenant's requests arriving on the same connection. Lanes
// answer independently, so one tenant's responses may leave out of
// order; clients match them by round. Returns nil on
// clean shutdown (Bye or EOF).
func (is *InferenceServer) HandleConn(conn transport.Conn) error {
	lc := &lockedConn{c: conn}
	for {
		m, err := conn.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("serve: infer recv: %w", err)
		}
		switch m.Type {
		case wire.MsgBye:
			return nil
		case wire.MsgInferRequest:
			is.handleRequest(lc, m)
		case wire.MsgHealth:
			wire.ReleasePayload(&wire.Buffers, m)
			_ = lc.send(&wire.Message{
				Type:    wire.MsgHealth,
				Round:   m.Round,
				Payload: wire.EncodeHealth(is.Health()),
			})
		default:
			return fmt.Errorf("serve: unexpected %s on inference connection", m.Type)
		}
	}
}

// handleRequest decodes, routes and enqueues one request; every
// failure mode answers the client instead of killing the connection.
// Already-expired and queue-overflow requests are shed here, before
// any tensor decode or batching work is spent on them.
func (is *InferenceServer) handleRequest(lc *lockedConn, m *wire.Message) {
	h, tpay, err := wire.DecodeInferRequest(m.Payload)
	if err != nil {
		is.respondError(lc, m.Platform, m.Round, err)
		return
	}
	ts, ok := is.serving[h.Tenant]
	if !ok {
		is.respondError(lc, m.Platform, m.Round, fmt.Errorf("%w: %q", ErrUnknownTenant, h.Tenant))
		return
	}
	var deadline time.Time
	if h.DeadlineMicros > 0 {
		deadline = time.Now().Add(time.Duration(h.DeadlineMicros) * time.Microsecond)
	}
	slot := ts.getSlot()
	dec, derr := wire.DecodeTensorsInto(slot, tpay)
	if derr == nil && len(dec) != 1 {
		derr = fmt.Errorf("serve: %d activation tensors in one request, want 1", len(dec))
	}
	if derr != nil {
		ts.putSlot(slot)
		is.respondError(lc, m.Platform, m.Round, derr)
		return
	}
	// Decoded tensors never alias the payload, so the frame buffer goes
	// back to the transport pool before the batch is even formed.
	wire.ReleasePayload(&wire.Buffers, m)
	j := &inferJob{
		conn: lc, platform: m.Platform, round: m.Round,
		reqID: h.RequestID, gen: h.Generation, deadline: deadline,
		acts: dec[0], slot: dec,
	}
	// Count before enqueueing: once queued, a lane may answer the
	// request before this goroutine runs again, and Stats must never
	// report fewer requests than the responses already sent.
	is.requests.Add(1)
	if err := ts.enqueue(j); err != nil {
		is.requests.Add(-1)
		ts.putSlot(j.slot)
		is.respondError(lc, m.Platform, m.Round, err)
		return
	}
}

// errCodeOf classifies a serving error for the wire: the code decides
// client retry behavior (wire.ErrCode.Retryable), the retry-after hint
// tells a shed client how long the condition plausibly needs to clear
// (one flush interval: a queue fills only while compute is busy, and
// then no batch is held for more requests longer than FlushEvery).
func (is *InferenceServer) errCodeOf(err error) (code wire.ErrCode, retryAfter time.Duration) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return wire.CodeOverloaded, is.cfg.FlushEvery
	case errors.Is(err, ErrDeadlineExpired):
		return wire.CodeExpired, 0
	case errors.Is(err, ErrManagerClosed):
		return wire.CodeDraining, 0
	case errors.Is(err, ErrUnknownTenant):
		return wire.CodeUnknownTenant, 0
	case errors.Is(err, ErrGenerationMismatch):
		return wire.CodeGenerationMismatch, 0
	case errors.Is(err, wire.ErrBadPayload):
		return wire.CodeBadRequest, 0
	default:
		return wire.CodeInternal, 0
	}
}

// respondError answers a request with a structured error payload; the
// client surfaces it as a RemoteError carrying the code.
func (is *InferenceServer) respondError(lc *lockedConn, platform, round uint32, err error) {
	code, retryAfter := is.errCodeOf(err)
	is.rejected.Add(1)
	switch code {
	case wire.CodeOverloaded:
		is.shed.Add(1)
	case wire.CodeExpired:
		is.expired.Add(1)
	}
	_ = lc.send(&wire.Message{
		Type:     wire.MsgInferResponse,
		Platform: platform,
		Round:    round,
		Payload:  wire.EncodeServeError(code, retryAfter, err.Error()),
	})
}

// tenantServing is one tenant's serving state. The batcher goroutine
// owns the pending batch, admit's scratch and the lane list; each lane
// owns what it computes with. The slot freelist is fed by connection
// readers and lanes.
type tenantServing struct {
	is   *InferenceServer
	t    *tenant
	gate *computeGate
	jobs chan *inferJob

	closeMu sync.RWMutex
	closed  bool

	slotMu sync.Mutex
	slots  [][]*tensor.Tensor

	jobScratch []*inferJob // admit's survivors, reused across batches
	lanes      []*lane     // created on demand, at most ComputeSlots
	solo       bool        // the back half has no replica: every batch runs on lane 0
}

// lane is one of a tenant's compute lanes. The batcher fills in a batch
// and a held compute slot, marks the lane busy and wakes it; the lane
// runs the forward pass, gives the slot back, answers the requests, and
// marks itself idle again.
type lane struct {
	ts   *tenantServing
	idx  int
	work chan struct{} // the batcher's hand-off; closed at shutdown
	busy atomic.Bool

	// The batch in flight, written by the batcher before the hand-off.
	jobs     []*inferJob
	trailing []int
	release  func()

	// model is what the lane forwards: the cache's model src itself on
	// lane 0, a replica of it on the others.
	src, model nn.Layer

	// Lane-local scratch, reused across batches: the fused activation
	// tensor, its shape, and the slices a batch partitions into.
	fused *tensor.Tensor
	shape []int
	acts  []*tensor.Tensor
	sizes []int
}

// enqueue hands a decoded request to the batcher, shedding instead of
// blocking when the queue is full. The RLock spans the channel send so
// Close (which takes the write lock before closing the channel) cannot
// close a channel with a send in flight; the send itself is
// non-blocking, so admission never stalls the connection reader.
// Already-expired requests are shed here without queueing.
func (ts *tenantServing) enqueue(j *inferJob) error {
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		return ErrDeadlineExpired
	}
	ts.closeMu.RLock()
	defer ts.closeMu.RUnlock()
	if ts.closed {
		return ErrManagerClosed
	}
	select {
	case ts.jobs <- j:
		return nil
	default:
		return fmt.Errorf("%w: tenant %q queue at %d requests",
			ErrOverloaded, ts.t.cfg.Name, ts.is.cfg.QueueCap)
	}
}

// health derives the tenant's serving state: draining once Close has
// run, degraded while the checkpoint-reload breaker is open or the
// admission queue is more than half full (shedding is imminent), and
// serving otherwise. Degraded carries a retry-after hint of one flush
// interval — the cadence at which the queue drains.
func (ts *tenantServing) health() wire.TenantHealth {
	gen, breakerOpen := ts.t.cache.state()
	depth := len(ts.jobs)
	h := wire.TenantHealth{
		Tenant:     ts.t.cfg.Name,
		QueueDepth: uint32(depth),
		Generation: gen,
	}
	ts.closeMu.RLock()
	closed := ts.closed
	ts.closeMu.RUnlock()
	switch {
	case closed:
		h.State = wire.HealthDraining
	case breakerOpen || 2*depth >= ts.is.cfg.QueueCap:
		h.State = wire.HealthDegraded
		h.RetryAfterMicros = uint32(ts.is.cfg.FlushEvery / time.Microsecond)
	default:
		h.State = wire.HealthServing
	}
	return h
}

func (ts *tenantServing) getSlot() []*tensor.Tensor {
	ts.slotMu.Lock()
	defer ts.slotMu.Unlock()
	if n := len(ts.slots); n > 0 {
		s := ts.slots[n-1]
		ts.slots = ts.slots[:n-1]
		return s
	}
	return make([]*tensor.Tensor, 1)
}

func (ts *tenantServing) putSlot(s []*tensor.Tensor) {
	ts.slotMu.Lock()
	ts.slots = append(ts.slots, s)
	ts.slotMu.Unlock()
}

// run is the tenant's batcher loop. After a request joins the pending
// batch, the batch flushes at once when its rows reach BatchMax, when
// the request's own deadline budget cannot survive a full FlushEvery
// wait (batching must never be what expires a request), or when no
// other request is queued and a lane and a compute slot are free right
// now — then it runs on that slot instead of idling beside it.
// Otherwise the batch is held: the FlushEvery timer arms when a batch
// is first held, and whatever has accumulated when it fires is flushed.
// A held batch also retries the free-slot flush whenever the gate's
// wake channel fires, that is when any party banks a slot or one of the
// tenant's lanes finishes.
func (ts *tenantServing) run() {
	defer ts.is.wg.Done()
	defer ts.closeLanes()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var pending []*inferJob
	rows := 0
	flush := func(release func()) {
		ts.flush(pending, release)
		for i := range pending {
			pending[i] = nil
		}
		pending = pending[:0]
		rows = 0
	}
	stopTimer := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	for {
		var j *inferJob
		var ok bool
		if len(pending) == 0 {
			j, ok = <-ts.jobs
			if !ok {
				return
			}
		} else {
			select {
			case j, ok = <-ts.jobs:
				if !ok {
					stopTimer()
					flush(nil)
					return
				}
			case <-timer.C:
				flush(nil)
				continue
			case <-ts.gate.wake:
				if len(ts.jobs) == 0 {
					if release, ok := ts.tryCompute(); ok {
						stopTimer()
						flush(release)
					}
				}
				continue
			}
		}
		pending = append(pending, j)
		rows += j.acts.Dim(0)
		urgent := !j.deadline.IsZero() && time.Until(j.deadline) <= ts.is.cfg.FlushEvery
		if rows >= ts.is.cfg.BatchMax || urgent {
			stopTimer()
			flush(nil)
			continue
		}
		if len(ts.jobs) == 0 {
			if release, ok := ts.tryCompute(); ok {
				stopTimer()
				flush(release)
				continue
			}
		}
		if len(pending) == 1 {
			timer.Reset(ts.is.cfg.FlushEvery)
		}
	}
}

// tryCompute takes a compute slot if one is free right now and the
// tenant has a lane to run on it, and never waits.
func (ts *tenantServing) tryCompute() (release func(), ok bool) {
	if ts.idleLane() == nil {
		return nil, false
	}
	return ts.gate.tryAcquire()
}

// flush runs one batch: it admits the batch, then hands the survivors
// and a compute slot to an idle lane, which fuses them along dim 0,
// runs the back half once, and answers each request. The slot is the
// one the caller already holds (release non-nil) or one taken from the
// gate once admit has left something to compute. A held slot is given
// back even when admit leaves nothing; it is held through admit, so a
// checkpoint reload that a pinned request triggers runs on it.
func (ts *tenantServing) flush(jobs []*inferJob, release func()) {
	model, live, first := ts.admit(jobs)
	if len(live) == 0 {
		if release != nil {
			release()
		}
		return
	}
	l := ts.takeLane(model)
	if release == nil {
		release = ts.gate.Acquire()
	}
	l.jobs = append(l.jobs[:0], live...)
	l.trailing = l.trailing[:0]
	for i := 1; i < first.Rank(); i++ {
		l.trailing = append(l.trailing, first.Dim(i))
	}
	l.release = release
	l.work <- struct{}{}
}

// laneCap is how many lanes the tenant may have: one per compute slot,
// or only lane 0 when its back half cannot be replicated.
func (ts *tenantServing) laneCap() int {
	if ts.solo {
		return 1
	}
	return ts.is.m.cfg.ComputeSlots
}

// idleLane returns the lowest-numbered idle lane. When every lane is
// busy it adds one if the tenant has fewer than laneCap, and otherwise
// returns nil.
func (ts *tenantServing) idleLane() *lane {
	n := min(len(ts.lanes), ts.laneCap())
	for _, l := range ts.lanes[:n] {
		if !l.busy.Load() {
			return l
		}
	}
	if n == ts.laneCap() {
		return nil
	}
	l := &lane{ts: ts, idx: n, work: make(chan struct{})}
	ts.lanes = append(ts.lanes, l)
	ts.is.wg.Add(1)
	go l.loop()
	return l
}

// takeLane returns an idle lane, marked busy and set to run model,
// waiting for one to finish when none is free.
func (ts *tenantServing) takeLane(model nn.Layer) *lane {
	for {
		l := ts.idleLane()
		if l == nil {
			<-ts.gate.wake
			continue
		}
		if !l.follow(model) {
			ts.solo = true
			continue
		}
		l.busy.Store(true)
		return l
	}
}

// closeLanes stops the tenant's lanes once their batches are answered.
func (ts *tenantServing) closeLanes() {
	for _, l := range ts.lanes {
		close(l.work)
	}
}

// follow sets the lane to run the cache's model src: lane 0 runs src
// itself, and a further lane a replica of it (nn.Replica), derived again
// whenever the cache hands out a different model — a reload, or a new
// f16/int8 view. Replicas share src's weights, so a lane adds only its
// forward scratch. follow fails only when src has no replica.
func (l *lane) follow(src nn.Layer) bool {
	if l.src == src {
		return true
	}
	model := src
	if l.idx > 0 {
		r, err := nn.Replica(src)
		if err != nil {
			return false
		}
		model = r
	}
	l.src, l.model = src, model
	return true
}

func (l *lane) loop() {
	defer l.ts.is.wg.Done()
	for range l.work {
		l.serve()
	}
}

// serve runs the batch the batcher handed over: one forward pass on the
// held slot, then the slot back, then one response per request. It
// ends by marking the lane idle and waking the batcher.
func (l *lane) serve() {
	ts := l.ts
	acc, sizes := l.acts[:0], l.sizes[:0]
	for _, j := range l.jobs {
		acc = append(acc, j.acts)
		sizes = append(sizes, j.acts.Dim(0))
	}
	l.acts, l.sizes = acc, sizes
	var z *tensor.Tensor
	if len(acc) == 1 {
		z = l.model.Forward(acc[0], false)
	} else {
		total := 0
		for _, n := range sizes {
			total += n
		}
		l.shape = append(append(l.shape[:0], total), l.trailing...)
		l.fused = tensor.EnsureShape(l.fused, l.shape...)
		z = l.model.Forward(tensor.ConcatDim0Into(l.fused, acc...), false)
	}
	l.release()
	ts.is.batches.Add(1)
	zs := []*tensor.Tensor{z}
	if len(acc) > 1 {
		zs = tensor.SplitDim0(z, sizes)
	}
	for i, j := range l.jobs {
		buf := ts.t.buffers.Get(wire.TensorsPayloadSize() + zs[i].EncodedSize())
		payload := wire.EncodeTensorsInto(buf, zs[i])
		_ = j.conn.send(&wire.Message{
			Type:     wire.MsgInferResponse,
			Platform: j.platform,
			Round:    j.round,
			Payload:  payload,
		})
		ts.putSlot(j.slot)
		l.jobs[i] = nil
	}
	clear(acc)
	l.release = nil
	l.busy.Store(false)
	ts.gate.signal()
}

// admit decides which of a batch's requests get computed: it sheds
// expired requests, resolves the model generation, and rejects the
// requests the loaded generation cannot satisfy or whose trailing dims
// do not match the batch's. It returns the model, the survivors (in
// jobScratch's storage, valid until the next admit) and the first
// survivor's activations, whose dims after the first are the batch's
// trailing dims. The expiry check runs before cache.ensure so a queue
// full of dead work never touches the model or the disk.
func (ts *tenantServing) admit(jobs []*inferJob) (model nn.Layer, live []*inferJob, first *tensor.Tensor) {
	now := time.Now()
	live = ts.jobScratch[:0]
	defer func() { ts.jobScratch = live[:0] }()
	var maxGen uint32
	for _, j := range jobs {
		if !j.deadline.IsZero() && now.After(j.deadline) {
			ts.reject(j, fmt.Errorf("%w: request %d waited past its budget",
				ErrDeadlineExpired, j.reqID))
			continue
		}
		if j.gen > maxGen {
			maxGen = j.gen
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return nil, live, nil
	}
	model, gen, err := ts.t.cache.ensure(maxGen)
	if err != nil {
		for _, j := range live {
			ts.reject(j, err)
		}
		return nil, live[:0], nil
	}
	jobs, live = live, live[:0]
	for _, j := range jobs {
		if j.gen != 0 && j.gen != gen {
			ts.reject(j, fmt.Errorf("%w: tenant %q serves generation %d, request wants %d",
				ErrGenerationMismatch, ts.t.cfg.Name, gen, j.gen))
			continue
		}
		if first == nil {
			first = j.acts
		} else if !sameTrailing(j.acts, first) {
			ts.reject(j, fmt.Errorf("serve: activation shape %v does not match batch trailing dims %v", j.acts.Shape(), first.Shape()[1:]))
			continue
		}
		live = append(live, j)
	}
	return model, live, first
}

// reject answers one batched request with a structured error payload
// and recycles its decode slot.
func (ts *tenantServing) reject(j *inferJob, err error) {
	code, retryAfter := ts.is.errCodeOf(err)
	ts.is.rejected.Add(1)
	switch code {
	case wire.CodeOverloaded:
		ts.is.shed.Add(1)
	case wire.CodeExpired:
		ts.is.expired.Add(1)
	}
	_ = j.conn.send(&wire.Message{
		Type:     wire.MsgInferResponse,
		Platform: j.platform,
		Round:    j.round,
		Payload:  wire.EncodeServeError(code, retryAfter, err.Error()),
	})
	ts.putSlot(j.slot)
}

// sameTrailing reports whether a and b have the same dims after the
// first.
func sameTrailing(a, b *tensor.Tensor) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := 1; i < a.Rank(); i++ {
		if a.Dim(i) != b.Dim(i) {
			return false
		}
	}
	return true
}
