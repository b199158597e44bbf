// Package simnet is a deterministic simulated-WAN transport: it carries
// wire.Messages between the platforms and the server exactly like the
// pipe and TCP transports do (it implements transport.Conn), while
// modeling each site's WAN link — one-way propagation latency, usable
// bandwidth, and seeded jitter — on a virtual clock. Runs finish as
// fast as the machine allows no matter how slow the simulated links
// are: nothing ever sleeps, the clock is pure accounting.
//
// # Virtual time
//
// Every party (the server, each platform) owns a causal clock (node).
// A message departs at the sender's current virtual time, waits for the
// link to finish serializing earlier messages (per-direction busy
// schedule), crosses the link in serialization + latency + jitter, and
// stamps the receiver's clock forward to its delivery time on Recv.
// Local compute is instantaneous by default, so Network.Elapsed then
// measures the pure network schedule of the protocol, produced by
// running the real engine. It is the repository's one time model:
// experiment runs every scheme over it when a config names a topology.
// Options.Compute switches on a per-party compute-time model: the
// server's clock is charged Compute.Server when it receives a
// platform's cut activations (the back half's forward+backward+step),
// and a platform's clock is charged its Compute.Platform entry when it
// ships a loss gradient (the front half's loss-gradient work between
// receiving logits and replying). Heterogeneous platforms (stragglers
// with slow GPUs, not just slow links) are one slice entry away, and
// the charges live on the virtual clocks, so Elapsed folds compute and
// communication into a single wall-clock.
//
// Determinism: a link's per-direction message sequence is fixed by the
// protocol, and its jitter stream is seeded from Options.Seed, so every
// per-message transfer time is reproducible. In every round mode each
// node is driven by a single protocol goroutine, which makes the full
// virtual timeline — and Elapsed — bit-for-bit reproducible across runs
// (experiment's TestAllModesTwiceRunIdenticalUnderFaults enforces it
// under jitter and churn). Trained weights are transport-timing
// independent in every mode (the scenario matrix tests enforce it).
//
// # Faults
//
// Fault injection is scripted, not random: a Fault names the platform
// link, the round, and optionally the message type and direction that
// trigger it, so a "drop platform 3 while it uploads round 5's loss
// gradients" scenario is one literal. A triggered fault severs the
// link: in-flight messages are lost, the sender sees a connection
// error (or a fake success with Swallow — the TCP-buffer failure mode),
// and the peer reads io.EOF, which is exactly what core's dropout
// recovery classifies as recoverable. Redial builds the replacement
// connection for the rejoin handshake; FailDials makes the link stay
// down for a deterministic number of attempts first.
//
// The serving-phase kinds perturb without severing: FaultDrop loses one
// message on a healthy link, FaultDelaySpike delivers one message late
// in virtual time, and FaultStall freezes a direction for a stretch of
// real time — the three shapes the inference tier's timeout, retry and
// hedging machinery must absorb (see experiment.RunServeChaos).
package simnet

import (
	"fmt"
	"io"
	"sync"
	"time"

	"medsplit/internal/geonet"
	"medsplit/internal/rng"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// Dir names a transfer direction on a link.
type Dir uint8

// Link directions.
const (
	// DirUp is platform → server.
	DirUp Dir = iota + 1
	// DirDown is server → platform.
	DirDown
)

// String names the direction.
func (d Dir) String() string {
	switch d {
	case DirUp:
		return "up"
	case DirDown:
		return "down"
	default:
		return fmt.Sprintf("dir(%d)", uint8(d))
	}
}

// FaultKind selects what a triggered fault takes down.
type FaultKind uint8

// Fault kinds. The zero value severs just the triggering link, so
// existing fault scripts keep their meaning.
const (
	// FaultSever kills the triggering platform's link segment: the
	// classic platform-dropout scenario.
	FaultSever FaultKind = iota
	// FaultKillServer models the server process dying: the triggering
	// link severs, and then every other platform's link severs too —
	// all conversations with the dead process end at once. FailDials
	// arms on every link, so no platform can redial until the budget
	// is spent (the window in which a follower promotes).
	FaultKillServer
	// FaultDrop loses the triggering message while the link stays
	// healthy — the serving-phase failure where one request (or one
	// response) vanishes and the client's per-attempt timeout is the
	// only thing that notices. The Send reports success, like Swallow,
	// but nothing severs and later traffic flows normally.
	FaultDrop
	// FaultDelaySpike delivers the triggering message Delay later in
	// virtual time — a transient WAN latency spike. In-order delivery
	// holds, so messages queued behind it on the same direction are
	// pushed back too.
	FaultDelaySpike
	// FaultStall freezes the triggering direction for Hold of real
	// time — a stalled server (GC pause, CPU starvation) rather than a
	// slow link. The message and everything behind it stay queued and
	// undeliverable until the hold expires, which is what drives a
	// client's real-time timeout and hedging machinery in chaos runs;
	// virtual time is untouched (a process freeze is not network
	// time).
	FaultStall
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultSever:
		return "sever"
	case FaultKillServer:
		return "kill-server"
	case FaultDrop:
		return "drop"
	case FaultDelaySpike:
		return "delay-spike"
	case FaultStall:
		return "stall"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Fault scripts one deterministic failure. The trigger fires when a
// message matching (Round, Type, Dir) is handed to Send; a zero Type or
// Dir matches any. Partitions are just several Faults sharing a round.
type Fault struct {
	// Platform names the link (the id passed to AddLink).
	Platform int
	// Round triggers on messages of exactly this round.
	Round int
	// Type, when nonzero, narrows the trigger to one message type.
	Type wire.MsgType
	// Dir, when nonzero, narrows the trigger to one direction.
	Dir Dir
	// Kind selects the blast radius: FaultSever (default) takes down
	// this one link, FaultKillServer takes down every link, and the
	// serving-phase kinds (FaultDrop, FaultDelaySpike, FaultStall)
	// perturb traffic without severing anything.
	Kind FaultKind
	// Swallow reports the triggering Send as successful while dropping
	// the message — the failure mode where a payload dies buffered in a
	// kernel socket after the sender moved on. Only meaningful for the
	// severing kinds; FaultDrop always reports success.
	Swallow bool
	// Delay is FaultDelaySpike's extra virtual delivery delay.
	Delay time.Duration
	// Hold is FaultStall's real-time freeze of the triggering
	// direction.
	Hold time.Duration
	// FailDials makes the first FailDials Redial attempts after the
	// drop fail, a deterministic stand-in for a link that stays down
	// for a while before the platform can rejoin. With FaultKillServer
	// the budget arms on every link, not just the triggering one.
	FailDials int
}

// Compute models local compute time on the virtual clocks. The zero
// value keeps the legacy behavior: compute is instantaneous and Elapsed
// is the pure network schedule.
//
// Server is applied when the server endpoint receives a
// wire.MsgActivations — the back half's forward + backward + step for
// that platform's minibatch — and Platform[id] is applied when platform
// id hands a wire.MsgLossGrad to Send, i.e. between receiving logits
// and shipping the loss gradient. Eval and L1-sync traffic use other
// message types and are never charged (their transfers still take
// time), and neither are the parameter-exchange baselines, which send
// neither type.
type Compute struct {
	// Server is the back-half compute charged per received activations
	// message.
	Server time.Duration
	// Platform is the per-platform front-half loss-gradient compute,
	// indexed by the id passed to AddLink. Platforms beyond the slice
	// (or a nil slice) compute instantaneously.
	Platform []time.Duration
}

// platform returns platform id's compute charge.
func (c Compute) platform(id int) time.Duration {
	if id < 0 || id >= len(c.Platform) {
		return 0
	}
	return c.Platform[id]
}

// Options configures a Network.
type Options struct {
	// Seed derives every link's jitter stream; equal seeds give
	// bit-identical transfer schedules.
	Seed uint64
	// Jitter adds up to this fraction of a message's base transfer time
	// (serialization + latency) as seeded extra delay. Must be in
	// [0, 1). Zero disables jitter.
	Jitter float64
	// QueueCap bounds each direction's in-flight messages; a sender
	// blocks (backpressure) when the peer has not drained. Defaults to
	// 64 — far above anything the request/response protocol queues, but
	// a hard stop against unbounded buffering if a future protocol
	// misbehaves.
	QueueCap int
	// Faults is the fault script (see Fault).
	Faults []Fault
	// Compute charges local compute time onto the virtual clocks (see
	// Compute). Zero value: compute is instantaneous.
	Compute Compute
}

// Network is a simulated WAN: one server-side clock plus one link (and
// clock) per platform. Safe for concurrent use by the session's
// goroutines.
type Network struct {
	opts Options

	server *node

	mu    sync.Mutex
	links map[int]*link
}

// New builds an empty network. Add links with AddLink or use
// FromTopology.
func New(opts Options) *Network {
	if opts.Jitter < 0 || opts.Jitter >= 1 {
		panic(fmt.Sprintf("simnet: jitter %v outside [0,1)", opts.Jitter))
	}
	if opts.Compute.Server < 0 {
		panic(fmt.Sprintf("simnet: negative server compute %v", opts.Compute.Server))
	}
	for id, d := range opts.Compute.Platform {
		if d < 0 {
			panic(fmt.Sprintf("simnet: negative compute %v for platform %d", d, id))
		}
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 64
	}
	return &Network{
		opts:   opts,
		server: &node{},
		links:  make(map[int]*link),
	}
}

// node is one party's causal virtual clock: it only moves forward, to
// the latest delivery time the party has observed.
type node struct {
	mu  sync.Mutex
	now time.Duration
}

func (nd *node) clock() time.Duration {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.now
}

func (nd *node) observe(t time.Duration) {
	nd.mu.Lock()
	if t > nd.now {
		nd.now = t
	}
	nd.mu.Unlock()
}

// advance charges local compute: unlike observe it always moves the
// clock, because compute time is spent regardless of what was already
// observed.
func (nd *node) advance(d time.Duration) {
	if d <= 0 {
		return
	}
	nd.mu.Lock()
	nd.now += d
	nd.mu.Unlock()
}

// link is one platform's WAN path: immutable parameters plus the
// current segment (a redial replaces the segment, never the link).
type link struct {
	net      *Network
	platform int
	params   geonet.Link
	node     *node // the platform's clock

	mu        sync.Mutex
	gen       int
	cur       *segment
	faults    []Fault // pending (unconsumed) faults for this link
	failDials int     // Redial attempts that must still fail
}

// AddLink creates the platform's link with the given WAN parameters and
// returns its two connection endpoints. simnet treats Mbps <= 0 as an
// infinitely fast link and LatencyMs <= 0 as zero latency, so the ideal
// zero-latency configuration used by the differential tests is
// expressible.
func (n *Network) AddLink(platform int, params geonet.Link) (serverEnd, platformEnd transport.Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.links[platform]; dup {
		panic(fmt.Sprintf("simnet: duplicate link for platform %d", platform))
	}
	l := &link{
		net:      n,
		platform: platform,
		params:   params,
		node:     &node{},
	}
	for _, f := range n.opts.Faults {
		if f.Platform == platform {
			l.faults = append(l.faults, f)
		}
	}
	l.cur = l.newSegment(0)
	n.links[platform] = l
	return l.cur.server, l.cur.platform
}

// Redial replaces a platform's (typically severed) link segment with a
// fresh one on the same parameters and clocks, returning the new
// endpoint pair — the simulated equivalent of a platform re-dialing
// the server for the rejoin handshake. The caller hands serverEnd to
// whatever accepts rejoins (core.RejoinBroker.Offer) and uses
// platformEnd as the PlatformConfig.Redial result. While a triggered
// fault's FailDials budget lasts, Redial deterministically fails.
func (n *Network) Redial(platform int) (serverEnd, platformEnd transport.Conn, err error) {
	n.mu.Lock()
	l := n.links[platform]
	n.mu.Unlock()
	if l == nil {
		return nil, nil, fmt.Errorf("simnet: no link for platform %d", platform)
	}
	l.mu.Lock()
	if l.failDials > 0 {
		remaining := l.failDials - 1
		l.failDials = remaining
		l.mu.Unlock()
		return nil, nil, fmt.Errorf("simnet: link %d still down (%d more dials will fail)", platform, remaining)
	}
	old := l.cur
	l.gen++
	l.cur = l.newSegment(l.gen)
	server, platformConn := l.cur.server, l.cur.platform
	// Drop the link lock before severing: a Send in flight on the old
	// segment holds that segment's lock while consulting the fault
	// script under the link lock, so severing under l.mu would invert
	// the seg.mu → link.mu order and deadlock.
	l.mu.Unlock()
	old.sever(false) // an abandoned healthy segment must not keep delivering
	return server, platformConn, nil
}

// killServer implements FaultKillServer: the server process died, so
// every platform's current segment severs and every link arms the
// fault's FailDials budget. The triggering link was already severed
// (and its budget armed by takeFault) by the Send that fired the
// fault; it is skipped here. Called with no locks held — severing
// takes each segment's own lock.
func (n *Network) killServer(trigger *link, failDials int) {
	n.mu.Lock()
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		if l != trigger {
			links = append(links, l)
		}
	}
	n.mu.Unlock()
	for _, l := range links {
		l.mu.Lock()
		l.failDials = failDials
		cur := l.cur
		l.mu.Unlock()
		cur.sever(true)
	}
}

// Elapsed returns the latest virtual time any party has reached — the
// simulated wall-clock of the session so far.
func (n *Network) Elapsed() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	max := n.server.clock()
	for _, l := range n.links {
		if t := l.node.clock(); t > max {
			max = t
		}
	}
	return max
}

// PlatformClock returns one platform's virtual time (its node clock).
func (n *Network) PlatformClock(platform int) time.Duration {
	n.mu.Lock()
	l := n.links[platform]
	n.mu.Unlock()
	if l == nil {
		return 0
	}
	return l.node.clock()
}

// takeFault consumes and returns the first pending fault matching the
// message, or nil.
func (l *link) takeFault(m *wire.Message, dir Dir) *Fault {
	// Caller holds l.mu (segment operations lock the link, see below).
	for i, f := range l.faults {
		if int(m.Round) != f.Round {
			continue
		}
		if f.Type != 0 && m.Type != f.Type {
			continue
		}
		if f.Dir != 0 && dir != f.Dir {
			continue
		}
		l.faults = append(l.faults[:i], l.faults[i+1:]...)
		if f.Kind == FaultSever || f.Kind == FaultKillServer {
			l.failDials = f.FailDials
		}
		matched := f
		return &matched
	}
	return nil
}

// segment is one live incarnation of a link: two directed queues plus
// the shared condition variable both endpoints wait on. A severed or
// replaced segment stays severed forever; a Redial builds a new one.
type segment struct {
	link *link
	gen  int

	mu     sync.Mutex
	cond   *sync.Cond
	broken bool
	up     queueState // platform → server
	down   queueState // server → platform

	server   *endpoint
	platform *endpoint
}

// queueState is one direction's in-flight messages and transfer
// schedule.
type queueState struct {
	msgs         []timedMsg
	senderClosed bool
	stalled      bool          // FaultStall: nothing delivers until the hold expires
	busyUntil    time.Duration // link serializer free at
	lastDeliver  time.Duration // in-order delivery clamp
	jitter       *rng.RNG
}

type timedMsg struct {
	m  *wire.Message
	at time.Duration
}

// newSegment builds a fresh segment; jitter streams are derived from
// the network seed, the platform id, the direction and the segment
// generation, so every incarnation's schedule is reproducible.
func (l *link) newSegment(gen int) *segment {
	s := &segment{link: l, gen: gen}
	s.cond = sync.NewCond(&s.mu)
	s.up.jitter = deriveRNG(l.net.opts.Seed, l.platform, DirUp, gen)
	s.down.jitter = deriveRNG(l.net.opts.Seed, l.platform, DirDown, gen)
	s.server = &endpoint{seg: s, isServer: true, node: l.net.server}
	s.platform = &endpoint{seg: s, isServer: false, node: l.node}
	return s
}

// deriveRNG decorrelates a per-direction jitter stream from the network
// seed using SplitMix64's own mixing (one Split per component).
func deriveRNG(seed uint64, platform int, dir Dir, gen int) *rng.RNG {
	r := rng.New(seed ^ 0x517e57a7e5eed5)
	r = rng.New(r.Uint64() + uint64(platform)*0x9e3779b97f4a7c15)
	r = rng.New(r.Uint64() + uint64(dir))
	return rng.New(r.Uint64() + uint64(gen)*0xbf58476d1ce4e5b9)
}

// severLocked kills the segment; the caller holds s.mu. Blocked callers
// wake with errors and queued messages are lost — except, when the server
// process died (serverDied), the ones it had already sent. Those left
// it at or before the death on its virtual clock, so their receiver
// drains them and then reads EOF.
func (s *segment) severLocked(serverDied bool) {
	s.broken = true
	s.up.msgs = nil
	if !serverDied {
		s.down.msgs = nil
	}
	s.cond.Broadcast()
}

// sever is severLocked for a caller that does not hold s.mu.
func (s *segment) sever(serverDied bool) {
	s.mu.Lock()
	s.severLocked(serverDied)
	s.mu.Unlock()
}

// transfer computes the delivery time for size wire bytes handed to the
// queue at virtual time now, advancing the direction's schedule.
// Caller holds s.mu.
func (s *segment) transfer(q *queueState, now time.Duration, size int) time.Duration {
	p := s.link.params
	var serialize time.Duration
	if p.Mbps > 0 {
		serialize = time.Duration(float64(size) * 8 / (p.Mbps * 1e6) * float64(time.Second))
	}
	var latency time.Duration
	if p.LatencyMs > 0 {
		latency = time.Duration(p.LatencyMs * float64(time.Millisecond))
	}
	depart := now
	if q.busyUntil > depart {
		depart = q.busyUntil
	}
	q.busyUntil = depart + serialize
	at := depart + serialize + latency
	if j := s.link.net.opts.Jitter; j > 0 {
		at += time.Duration(float64(serialize+latency) * j * q.jitter.Float64())
	}
	if at < q.lastDeliver { // in-order delivery (stream semantics)
		at = q.lastDeliver
	}
	q.lastDeliver = at
	return at
}

// endpoint is one side of a segment. It satisfies transport.Conn.
type endpoint struct {
	seg      *segment
	isServer bool
	node     *node

	closed bool // guarded by seg.mu
}

var _ transport.Conn = (*endpoint)(nil)

// out returns the queue this endpoint sends into and its direction.
func (e *endpoint) out() (*queueState, Dir) {
	if e.isServer {
		return &e.seg.down, DirDown
	}
	return &e.seg.up, DirUp
}

// in returns the queue this endpoint receives from.
func (e *endpoint) in() *queueState {
	if e.isServer {
		return &e.seg.up
	}
	return &e.seg.down
}

// Send queues m for delivery after the link's simulated transfer. It
// blocks only for backpressure (QueueCap) — never for virtual time.
// The message is delivered by reference, so the transport.Conn payload
// ownership rules apply unchanged; messages lost to a severed link are
// dropped on the floor (never recycled into wire.Buffers).
func (e *endpoint) Send(m *wire.Message) error {
	s := e.seg
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.closed {
		return transport.ErrClosed
	}
	q, dir := e.out()
	if s.broken || q.senderClosed || e.peer().closed {
		return io.ErrClosedPipe
	}
	// Fault script: consult under the link lock so concurrent senders on
	// the two directions race deterministically never — each fault names
	// one direction or matches the first arrival (single consumer).
	s.link.mu.Lock()
	f := s.link.takeFault(m, dir)
	s.link.mu.Unlock()
	if f != nil && f.Kind == FaultDrop {
		return nil // lost in flight; the link stays healthy
	}
	if f != nil && (f.Kind == FaultSever || f.Kind == FaultKillServer) {
		s.severLocked(f.Kind == FaultKillServer)
		if f.Kind == FaultKillServer {
			// Take down every other link too — but only after releasing
			// this segment's lock: severing walks other segments' locks,
			// and holding ours while doing so could deadlock against a
			// concurrent fault firing the other way (same reasoning as
			// Redial dropping l.mu before old.sever()).
			s.mu.Unlock()
			s.link.net.killServer(s.link, f.FailDials)
			s.mu.Lock() // restore for the deferred unlock
		}
		if f.Swallow {
			return nil
		}
		return fmt.Errorf("simnet: link %d severed on %s r%d %s: %w",
			s.link.platform, m.Type, m.Round, dir, io.ErrClosedPipe)
	}
	for len(q.msgs) >= s.link.net.opts.QueueCap {
		s.cond.Wait()
		if e.closed {
			return transport.ErrClosed
		}
		if s.broken || e.peer().closed {
			return io.ErrClosedPipe
		}
	}
	// Front-half compute: the loss gradient departs only after the
	// platform finished computing it (geonet's PlatformCompute charge
	// point, between receiving logits and shipping the loss gradient).
	if !e.isServer && m.Type == wire.MsgLossGrad {
		e.node.advance(s.link.net.opts.Compute.platform(s.link.platform))
	}
	at := s.transfer(q, e.node.clock(), m.WireSize())
	if f != nil && f.Kind == FaultDelaySpike && f.Delay > 0 {
		at += f.Delay
		q.lastDeliver = at // in-order: the spike pushes later traffic back too
	}
	q.msgs = append(q.msgs, timedMsg{m: m, at: at})
	if f != nil && f.Kind == FaultStall && f.Hold > 0 {
		q.stalled = true
		// The hold is real time (a frozen process, not a slow link), so
		// it clears from a timer: take the segment lock before waking
		// waiters, or a Recv that checked stalled just before the flag
		// flipped would miss the wakeup and sleep forever.
		time.AfterFunc(f.Hold, func() {
			s.mu.Lock()
			q.stalled = false
			s.cond.Broadcast()
			s.mu.Unlock()
		})
	}
	s.cond.Broadcast()
	return nil
}

// Recv returns the next delivered message, advancing this party's
// virtual clock to its delivery time. Messages queued before a
// graceful peer Close still drain (stream semantics), and so do the
// ones a dead server sent before it died (see severLocked); a severed
// link or a drained closed stream reads as io.EOF, matching the TCP
// and pipe transports.
func (e *endpoint) Recv() (*wire.Message, error) {
	s := e.seg
	s.mu.Lock()
	defer s.mu.Unlock()
	q := e.in()
	for {
		if e.closed {
			return nil, transport.ErrClosed
		}
		if len(q.msgs) > 0 && !q.stalled {
			tm := q.msgs[0]
			q.msgs = q.msgs[1:]
			s.cond.Broadcast() // backpressure waiters
			e.node.observe(tm.at)
			// Back-half compute: the server spends its per-minibatch
			// forward+backward+step before it can do anything else with
			// this platform's activations (geonet's ServerCompute charge
			// point).
			if e.isServer && tm.m.Type == wire.MsgActivations {
				e.node.advance(s.link.net.opts.Compute.Server)
			}
			return tm.m, nil
		}
		if s.broken {
			return nil, io.EOF
		}
		if len(q.msgs) == 0 && q.senderClosed {
			return nil, io.EOF
		}
		s.cond.Wait()
	}
}

// Close shuts this endpoint down: its own operations return ErrClosed,
// the peer drains any delivered messages and then reads io.EOF.
func (e *endpoint) Close() error {
	s := e.seg
	s.mu.Lock()
	if !e.closed {
		e.closed = true
		q, _ := e.out()
		q.senderClosed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	return nil
}

func (e *endpoint) peer() *endpoint {
	if e.isServer {
		return e.seg.platform
	}
	return e.seg.server
}
