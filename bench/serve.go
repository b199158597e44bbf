package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"medsplit/internal/experiment"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/serve"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// Fixed parameters of the serving workloads.
const (
	serveTenants   = 2
	serveConns     = 2
	serveRows      = 2    // rows per request
	serveInputs    = 32   // distinct pre-computed inputs per tenant
	serveHotShare  = 0.75 // share of requests that go to tenant 0
	serveSlots     = 2    // Manager.ComputeSlots
	serveDrainWait = 2 * time.Second
	maxInFlight    = 64 // capacity of a connection's in-flight slot channel
)

func tenantName(i int) string { return fmt.Sprintf("tenant-%d", i) }

// tenantModel is the deterministic recipe of one tenant's model, the
// one experiment.RunServeLoad uses: same architecture, distinct seed.
func tenantModel(seed uint64, i int) experiment.Config {
	return experiment.Config{Arch: experiment.ArchVGG, Classes: trainClasses, Width: trainWidth, Seed: seed + 101*uint64(i+1)}
}

func buildHalves(cfg experiment.Config) (front, back *nn.Sequential, err error) {
	m, err := experiment.BuildModel(cfg)
	if err != nil {
		return nil, nil, err
	}
	return models.Split(m.Net, m.DefaultCut)
}

// serveInput is one pre-computed request: the encoded request payload
// (cut activations of a seeded input through the tenant's front half)
// and the logits an identically built back half gives for those rows on
// their own — the reference every response must equal bit for bit,
// whatever batch the server put the request in.
type serveInput struct {
	payload []byte
	acts    *tensor.Tensor
	want    []float32
}

// serveInputs generates the run's requests from the seed. It is the
// benchmark's own work and is not part of set-up time.
type serveFixture struct {
	inputs   [serveTenants][]serveInput
	refBacks [serveTenants]*nn.Sequential
}

func newServeFixture(seed uint64) (*serveFixture, error) {
	fx := &serveFixture{}
	for t := 0; t < serveTenants; t++ {
		front, back, err := buildHalves(tenantModel(seed, t))
		if err != nil {
			return nil, err
		}
		fx.refBacks[t] = back
		r := rng.New(seed + 0xC11E47 + uint64(t))
		x := tensor.New(serveRows, 3, 32, 32)
		for i := 0; i < serveInputs; i++ {
			fillNorm(x, r)
			acts := front.Forward(x, false).Clone()
			logits := back.Forward(acts, false)
			in := serveInput{acts: acts, want: append([]float32(nil), logits.Data()...)}
			in.payload = wire.EncodeInferRequest(wire.InferHeader{
				Tenant:         tenantName(t),
				RequestID:      uint64(i),
				DeadlineMicros: uint32(latencyLimit / time.Microsecond),
			}, acts)
			fx.inputs[t] = append(fx.inputs[t], in)
		}
	}
	return fx, nil
}

// residenceConn is the server-end wrapper of the traced run: it stamps
// when a request's Recv returned and when its response's Send was
// called. Recv runs on the connection's reader goroutine and Send on the
// tenants' batcher goroutines; each stamp has its own atomic slot.
type residenceConn struct {
	inner transport.Conn
	epoch time.Time
	in    []atomic.Int64 // ns since epoch, by request sequence
	out   []atomic.Int64
}

func (c *residenceConn) Recv() (*wire.Message, error) {
	m, err := c.inner.Recv()
	if err == nil && m.Type == wire.MsgInferRequest && int(m.Round) < len(c.in) {
		c.in[m.Round].Store(int64(time.Since(c.epoch)))
	}
	return m, err
}

func (c *residenceConn) Send(m *wire.Message) error {
	if m.Type == wire.MsgInferResponse && int(m.Round) < len(c.out) {
		c.out[m.Round].Store(int64(time.Since(c.epoch)))
	}
	return c.inner.Send(m)
}

func (c *residenceConn) Close() error { return c.inner.Close() }

// request is the client's record of one request on one connection.
type request struct {
	tenant, input int
	due           time.Duration // open loop: scheduled send time since phase start
	sent          time.Duration // actual send time since phase start
	done          time.Duration // response time since phase start; 0 = none
	ok            bool          // response decoded and equal to the reference
}

// serveClient is one client connection: a sender (the caller's
// goroutine) and a receiver goroutine. Message.Round carries the
// request's sequence number, which the server echoes, so many requests
// can be in flight on one connection.
type serveClient struct {
	conn  transport.Conn
	meter *transport.Meter
	fx    *serveFixture
	reqs  []request // indexed by sequence; slots are written by one side each
	start time.Time // phase start; set before the first measured send

	// published is one past the highest sequence handed to Send. The
	// sender stores it after filling the request's slot and the receiver
	// loads it before reading the slot, which orders the two goroutines
	// for the Go memory model (the socket in between does not).
	published atomic.Int64
	received  atomic.Int64
	tokens    chan struct{} // closed loop: one per free in-flight slot (capacity maxInFlight)
	recvDone  chan error
}

func (c *serveClient) send(seq int) error {
	r := &c.reqs[seq]
	c.published.Store(int64(seq) + 1)
	return c.conn.Send(&wire.Message{
		Type:     wire.MsgInferRequest,
		Platform: 1,
		Round:    uint32(seq),
		Payload:  c.fx.inputs[r.tenant][r.input].payload,
	})
}

// receive runs until the connection ends. It checks every response
// against the reference and stamps its arrival.
func (c *serveClient) receive() {
	var dec []*tensor.Tensor
	for {
		m, err := c.conn.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil // the server closed after our Bye
			}
			c.recvDone <- err
			return
		}
		if m.Type != wire.MsgInferResponse || int64(m.Round) >= c.published.Load() {
			c.recvDone <- fmt.Errorf("unexpected %s seq %d on a client connection", m.Type, m.Round)
			return
		}
		r := &c.reqs[m.Round]
		r.done = time.Since(c.start)
		if ts, derr := wire.DecodeTensorsInto(dec, m.Payload); derr == nil && len(ts) == 1 {
			dec = ts
			r.ok = equalBits(ts[0].Data(), c.fx.inputs[r.tenant][r.input].want)
		}
		wire.ReleasePayload(&wire.Buffers, m)
		c.received.Add(1)
		select {
		case c.tokens <- struct{}{}:
		default: // open loop, or a warm-up answer: nobody is waiting for a slot
		}
	}
}

func equalBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// serveSession is one serving process set up end to end: manager,
// inference tier, listener, two client connections with their server
// readers, and one answered request per tenant and connection.
type serveSession struct {
	mgr       *serve.Manager
	is        *serve.InferenceServer
	clients   []*serveClient
	srvConns  []transport.Conn
	residence []*residenceConn // traced run only
	handlers  sync.WaitGroup
	setup     time.Duration
	buildNs   atomic.Int64 // first tenant model build (BuildBack)
}

const (
	serveWarmups = serveTenants // warm-up requests per connection
	serveSetups  = 21           // set-ups per run
)

// buildServe sets a serving process up. capacity is the most requests
// one connection may carry in the session (it sizes the per-request
// tables).
func buildServe(seed uint64, fx *serveFixture, traced bool, capacity int) (s *serveSession, err error) {
	start := time.Now()
	s = &serveSession{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var buildOnce sync.Once
	tenants := make([]serve.TenantConfig, serveTenants)
	for i := range tenants {
		cfg := tenantModel(seed, i)
		tenants[i] = serve.TenantConfig{
			Name: tenantName(i),
			BuildBack: func() (*nn.Sequential, error) {
				t0 := time.Now()
				_, back, err := buildHalves(cfg)
				buildOnce.Do(func() { s.buildNs.Store(int64(time.Since(t0))) })
				return back, err
			},
		}
	}
	if s.mgr, err = serve.NewManager(serve.Config{Tenants: tenants, ComputeSlots: serveSlots}); err != nil {
		return nil, err
	}
	// Defaults: BatchMax 8 rows, FlushEvery 2ms, QueueCap 256.
	if s.is, err = serve.NewInferenceServer(s.mgr, serve.InferConfig{}); err != nil {
		return nil, err
	}
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	for k := 0; k < serveConns; k++ {
		cc, err := transport.Dial(ln.Addr())
		if err != nil {
			return nil, err
		}
		c := &serveClient{meter: &transport.Meter{}, fx: fx, reqs: make([]request, capacity+serveWarmups),
			start: start, recvDone: make(chan error, 1), tokens: make(chan struct{}, maxInFlight)}
		c.conn = transport.Metered(cc, c.meter)
		s.clients = append(s.clients, c)
		sc, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		if traced {
			rc := &residenceConn{inner: sc, epoch: start, in: make([]atomic.Int64, len(c.reqs)), out: make([]atomic.Int64, len(c.reqs))}
			s.residence = append(s.residence, rc)
			sc = rc
		}
		s.srvConns = append(s.srvConns, sc)
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			// A clean Bye or EOF returns nil; anything else surfaces as
			// missing responses on the client side.
			_ = s.is.HandleConn(sc)
			sc.Close()
		}()
		go c.receive()
	}
	// One request per tenant on every connection: the first one makes
	// the tier build the tenant's model, which is set-up, not serving.
	for _, c := range s.clients {
		for t := 0; t < serveWarmups; t++ {
			c.reqs[t] = request{tenant: t}
			if err := c.send(t); err != nil {
				return nil, err
			}
		}
	}
	for _, c := range s.clients {
		if err := c.waitReceived(serveWarmups, 10*time.Second); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		for t := 0; t < serveWarmups; t++ {
			if !c.reqs[t].ok {
				return nil, fmt.Errorf("warm-up response for %s is wrong", tenantName(t))
			}
		}
	}
	s.setup = time.Since(start)
	return s, nil
}

func (c *serveClient) waitReceived(n int64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for c.received.Load() < n {
		select {
		case err := <-c.recvDone:
			c.recvDone <- err
			return fmt.Errorf("connection ended after %d of %d responses: %v", c.received.Load(), n, err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d responses after %v", c.received.Load(), n, limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// close ends the session: Bye on every connection, wait for the server
// readers and the client receivers, stop the batchers. Idempotent
// enough for the error paths (closing a closed connection is a no-op).
func (s *serveSession) close() {
	for _, c := range s.clients {
		if err := c.conn.Send(&wire.Message{Type: wire.MsgBye}); err != nil {
			c.conn.Close() // the server reader ends on EOF instead
		}
	}
	s.handlers.Wait()
	for _, c := range s.clients {
		c.conn.Close()
		<-c.recvDone
	}
	s.clients = nil
	if s.is != nil {
		s.is.Close()
		s.is = nil
	}
	if s.mgr != nil {
		s.mgr.Close()
		s.mgr = nil
	}
}

// phaseOutcome is what one load phase measured.
type phaseOutcome struct {
	attempted int
	failed    int
	wrong     int             // wrong-valued or missing responses
	latencyMs []float64       // per request: done - due (open) or done - sent (closed)
	lateMs    []float64       // open loop: sent - due
	doneAt    []time.Duration // completion stamps, sorted
	bytes     int64           // framed bytes both directions on the client ends
	stats     serve.InferStats
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	length    time.Duration
	residence []float64 // traced: server residence per request, ms
	// residenceParty carries the same residences as spans, for the
	// trace file.
	residenceParty *party
}

// runPhase drives one load phase on a set-up session for `length`.
func (s *serveSession) runPhase(def *serveDef, seed uint64, length time.Duration, traced bool) (*phaseOutcome, error) {
	out := &phaseOutcome{length: length, residenceParty: &party{name: "server"}}
	first := make([]int, len(s.clients)) // first measured sequence per connection
	last := make([]int, len(s.clients))  // one past the last
	for k := range s.clients {
		first[k] = serveWarmups
		last[k] = serveWarmups
	}
	var bytes0 int64
	for _, c := range s.clients {
		bytes0 += c.meter.TotalBytes()
	}
	stats0 := s.is.Stats()

	if def.Rate > 0 {
		sched := poissonSchedule(seed+0x5C4ED, def.Rate, length, serveHotShare, len(s.clients), serveInputs)
		for _, a := range sched {
			c := s.clients[a.conn]
			if last[a.conn] >= len(c.reqs) {
				return nil, fmt.Errorf("schedule overflows the request table")
			}
			c.reqs[last[a.conn]] = request{tenant: a.tenant, input: a.input, due: a.due}
			last[a.conn]++
		}
	} else {
		r := rng.New(seed + 0x5C4ED)
		if def.InFlight > maxInFlight {
			return nil, fmt.Errorf("%d requests in flight per connection, at most %d", def.InFlight, maxInFlight)
		}
		for _, c := range s.clients {
			// Exactly InFlight free slots: drop what the warm-up answers
			// left behind first.
			for len(c.tokens) > 0 {
				<-c.tokens
			}
			for i := 0; i < def.InFlight; i++ {
				c.tokens <- struct{}{}
			}
			for i := serveWarmups; i < len(c.reqs); i++ {
				c.reqs[i] = request{input: r.Intn(serveInputs)}
				if r.Float64() >= serveHotShare {
					c.reqs[i].tenant = 1
				}
			}
		}
	}

	if traced {
		runtime.ReadMemStats(&out.mem0)
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(s.clients))
	for k, c := range s.clients {
		c.start = start
		wg.Add(1)
		go func(k int, c *serveClient) {
			defer wg.Done()
			if def.Rate > 0 {
				errs[k] = c.openLoop(first[k], last[k])
			} else {
				last[k], errs[k] = c.closedLoop(first[k], length, def.InFlight)
			}
		}(k, c)
	}
	wg.Wait()
	if traced {
		runtime.ReadMemStats(&out.mem1)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	stats1 := s.is.Stats()
	out.stats = serve.InferStats{
		Requests: stats1.Requests - stats0.Requests, Rejected: stats1.Rejected - stats0.Rejected,
		Shed: stats1.Shed - stats0.Shed, Expired: stats1.Expired - stats0.Expired, Batches: stats1.Batches - stats0.Batches,
	}
	for _, c := range s.clients {
		out.bytes += c.meter.TotalBytes()
	}
	out.bytes -= bytes0

	// Merge the connections' requests in due (or send) order, then drop
	// the warm-up share from the front.
	type tagged struct {
		r    request
		conn int
		seq  int
	}
	var all []tagged
	for k, c := range s.clients {
		for seq := first[k]; seq < last[k]; seq++ {
			all = append(all, tagged{c.reqs[seq], k, seq})
		}
	}
	key := func(r request) time.Duration {
		if def.Rate > 0 {
			return r.due
		}
		return r.sent
	}
	sort.Slice(all, func(i, j int) bool { return key(all[i].r) < key(all[j].r) })
	out.attempted = len(all)
	warm := int(math.Ceil(warmupShare * float64(len(all))))
	for i, t := range all {
		r := t.r
		lat := r.done - key(r)
		bad := r.done == 0 || !r.ok
		if bad {
			out.wrong++
		}
		if bad || lat > latencyLimit {
			out.failed++
		}
		if i < warm || r.done == 0 {
			continue
		}
		out.latencyMs = append(out.latencyMs, float64(lat)/1e6)
		out.doneAt = append(out.doneAt, r.done)
		if def.Rate > 0 {
			out.lateMs = append(out.lateMs, float64(r.sent-r.due)/1e6)
		}
		if traced {
			in, sent := s.residence[t.conn].in[t.seq].Load(), s.residence[t.conn].out[t.seq].Load()
			out.residence = append(out.residence, float64(sent-in)/1e6)
			out.residenceParty.spans = append(out.residenceParty.spans, span{name: "serve.residence",
				start: in, end: sent, parent: -1, id: int64(t.seq), tag: uint8(wire.MsgInferRequest), aux: int64(t.conn)})
		}
	}
	sort.Slice(out.doneAt, func(i, j int) bool { return out.doneAt[i] < out.doneAt[j] })
	return out, nil
}

// openLoop sends requests [first,last) at their due times whether or
// not earlier ones were answered, then waits for the stragglers.
func (c *serveClient) openLoop(first, last int) error {
	for seq := first; seq < last; seq++ {
		r := &c.reqs[seq]
		if wait := r.due - time.Since(c.start); wait > 0 {
			time.Sleep(wait)
		}
		r.sent = time.Since(c.start)
		if err := c.send(seq); err != nil {
			return err
		}
	}
	// A response that has not come serveDrainWait after the last send is
	// counted as missing, not waited for.
	_ = c.waitReceived(int64(last), serveDrainWait)
	return nil
}

// closedLoop keeps inFlight requests outstanding until length has
// passed, then collects the outstanding ones. It returns one past the
// last sequence it sent.
func (c *serveClient) closedLoop(first int, length time.Duration, inFlight int) (int, error) {
	seq := first
	stall := time.NewTimer(time.Hour)
	defer stall.Stop()
	for time.Since(c.start) < length && seq < len(c.reqs) {
		stall.Reset(serveDrainWait)
		select {
		case <-c.tokens:
		case <-stall.C:
			return seq, fmt.Errorf("no response for %v with %d requests in flight", serveDrainWait, inFlight)
		}
		c.reqs[seq].sent = time.Since(c.start)
		if err := c.send(seq); err != nil {
			return seq, err
		}
		seq++
	}
	_ = c.waitReceived(int64(seq), serveDrainWait)
	return seq, nil
}
