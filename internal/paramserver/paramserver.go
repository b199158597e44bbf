// Package paramserver implements the parameter-exchange schemes the
// split framework is measured against: Large-Scale Synchronous SGD (the
// paper's Fig. 4 comparator) and Federated Averaging (the related-work
// de facto standard). Both have the same shape: every client holds a
// full replica of the model; each round the server broadcasts the
// current weights and normalization state, every client does its local
// work and pushes one tensor per parameter back, and the server folds
// the pushes into the global model. Per round each client therefore
// moves 2×|model| bytes — the communication profile the split
// framework's activations-only traffic is compared with.
//
// One Server, one Client, one handshake and one push layout serve both;
// a Scheme value holds what differs. The protocol runs over the same
// wire and transport stack as the split engine, so byte accounting is
// identical.
package paramserver

import (
	"errors"
	"fmt"
	"sync"

	"medsplit/internal/dataset"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// Protocol errors.
var (
	// ErrProtocol reports an out-of-sequence or malformed message.
	ErrProtocol = errors.New("paramserver: protocol violation")
	// ErrConfig reports an invalid configuration, including a peer whose
	// handshake names a different scheme, round count or eval cadence.
	ErrConfig = errors.New("paramserver: invalid configuration")
)

// ServerConfig configures the aggregation server.
type ServerConfig struct {
	// Scheme is SyncSGD or FedAvg.
	Scheme *Scheme
	// Model is the server's authoritative global model.
	Model *nn.Sequential
	// Opt applies the aggregated gradient each round (SyncSGD only).
	Opt nn.Optimizer
	// Clients is the number of clients that will connect.
	Clients int
	// Rounds is the number of synchronous rounds.
	Rounds int
	// ClipGrads, when positive, clamps the aggregated gradient (SyncSGD
	// only).
	ClipGrads float32
	// EvalEvery, when positive, evaluates EvalData on the global model
	// every so many rounds (and after the final round). Evaluation is
	// local to the server: parameter-exchange schemes hold the full
	// model centrally, so it costs no communication.
	EvalEvery int
	// EvalData is the held-out test set (required when EvalEvery > 0).
	EvalData *dataset.Dataset
	// EvalBatch is the evaluation batch size (default 64).
	EvalBatch int
}

// EvalStat is one evaluation point of the global model.
type EvalStat struct {
	Round    int
	Accuracy float64
}

// ServerStats is what the server measured.
type ServerStats struct {
	Evals []EvalStat
}

// Server aggregates the clients' pushes into the global model.
type Server struct {
	cfg ServerConfig
	// sums is SyncSGD's gradient accumulator, allocated by the first fold.
	sums []*tensor.Tensor
}

// NewServer validates cfg and builds the server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("%w: nil scheme", ErrConfig)
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("%w: nil model", ErrConfig)
	}
	if cfg.Scheme.serverOpt && cfg.Opt == nil {
		return nil, fmt.Errorf("%w: %s server without an optimizer", ErrConfig, cfg.Scheme.name)
	}
	if cfg.Clients <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("%w: clients %d rounds %d", ErrConfig, cfg.Clients, cfg.Rounds)
	}
	if cfg.EvalEvery > 0 && cfg.EvalData == nil {
		return nil, fmt.Errorf("%w: EvalEvery without EvalData", ErrConfig)
	}
	if cfg.EvalBatch == 0 {
		cfg.EvalBatch = 64
	}
	return &Server{cfg: cfg}, nil
}

// Serve drives the protocol over the per-client connections and returns
// the evaluation curve.
func (s *Server) Serve(conns []transport.Conn) (*ServerStats, error) {
	if len(conns) != s.cfg.Clients {
		return nil, fmt.Errorf("%w: %d connections for %d clients", ErrConfig, len(conns), s.cfg.Clients)
	}
	if err := s.handshake(conns); err != nil {
		return nil, err
	}
	scheme := s.cfg.Scheme
	stats := &ServerStats{}
	params := s.cfg.Model.Params()
	state := nn.CollectState(s.cfg.Model)
	global := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		global[i] = scheme.ship(p)
	}
	// Every push must decode to the shipped tensor of each parameter
	// followed by the normalization state. Each client decodes into one
	// reusable staging list, viewed as its two halves for aggregation.
	shapes := append(append([]*tensor.Tensor(nil), global...), state...)
	staging := make([][]*tensor.Tensor, len(conns))
	pushes := make([][]*tensor.Tensor, len(conns))
	states := make([][]*tensor.Tensor, len(conns))
	weights := make([]float64, len(conns))
	var bcast payloadSizer
	var prevBcast []byte
	for r := 0; r < s.cfg.Rounds; r++ {
		// Round r-1's broadcast buffer is free again: every client has
		// decoded it (their round-r-1 pushes arrived before this point),
		// and decoded tensors never alias the payload. Recycling it here
		// — instead of at the receivers, which must never release a
		// shared broadcast payload — keeps the round loop allocation-free.
		wire.Buffers.Put(prevBcast)
		payload := bcast.keep(nn.EncodeModelInto(bcast.get(), params, state))
		prevBcast = payload
		for k, conn := range conns {
			if err := conn.Send(&wire.Message{
				Type:     wire.MsgModelPush,
				Platform: uint32(k),
				Round:    uint32(r),
				Payload:  payload,
			}); err != nil {
				return nil, fmt.Errorf("paramserver: broadcasting round %d to client %d: %w", r, k, err)
			}
		}
		for k, conn := range conns {
			m, err := recvExpect(conn, scheme.push, r)
			if err != nil {
				return nil, fmt.Errorf("paramserver: push from client %d: %w", k, err)
			}
			ts, n, err := decodePush(staging[k], m.Payload, shapes)
			if err != nil {
				return nil, fmt.Errorf("paramserver: client %d: %w", k, err)
			}
			wire.ReleasePayload(&wire.Buffers, m)
			staging[k] = ts
			pushes[k] = ts[:len(global)]
			states[k] = ts[len(global):len(shapes)]
			weights[k] = float64(n)
		}
		if err := scheme.fold(s, global, pushes, weights); err != nil {
			return nil, fmt.Errorf("paramserver: aggregating pushes: %w", err)
		}
		// Normalization state flows through neither gradients nor the
		// optimizer; install the weighted average of the clients'
		// statistics so the global model evaluates correctly.
		if len(state) > 0 {
			if err := nn.AverageInto(state, states, weights); err != nil {
				return nil, fmt.Errorf("paramserver: aggregating state: %w", err)
			}
		}
		if evalRound(s.cfg.EvalEvery, s.cfg.Rounds, r) {
			stats.Evals = append(stats.Evals, EvalStat{Round: r, Accuracy: s.evaluate()})
		}
	}
	for k, conn := range conns {
		if _, err := recvExpect(conn, wire.MsgBye, -1); err != nil {
			return nil, fmt.Errorf("paramserver: client %d shutdown: %w", k, err)
		}
	}
	return stats, nil
}

// evalRound reports whether round r ends with an evaluation point:
// every EvalEvery rounds and after the final one.
func evalRound(every, rounds, r int) bool {
	if every <= 0 {
		return false
	}
	return (r+1)%every == 0 || r == rounds-1
}

// evaluate measures global-model accuracy on the held-out set.
func (s *Server) evaluate() float64 {
	data := s.cfg.EvalData
	n := data.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	correct := 0
	for off := 0; off < n; off += s.cfg.EvalBatch {
		x, labels := data.Batch(idx[off:min(off+s.cfg.EvalBatch, n)])
		pred := tensor.ArgmaxRows(s.cfg.Model.Forward(x, false))
		for i, c := range pred {
			if c == labels[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}

// hello is the configuration both ends of a session must agree on.
func hello(scheme *Scheme, rounds, evalEvery int) string {
	return fmt.Sprintf("v=1;algo=%s;rounds=%d;eval=%d", scheme.name, rounds, evalEvery)
}

func (s *Server) handshake(conns []transport.Conn) error {
	want := hello(s.cfg.Scheme, s.cfg.Rounds, s.cfg.EvalEvery)
	for k, conn := range conns {
		m, err := recvExpect(conn, wire.MsgHello, -1)
		if err != nil {
			return fmt.Errorf("paramserver: hello from client %d: %w", k, err)
		}
		if int(m.Platform) != k {
			return fmt.Errorf("%w: connection %d identifies as client %d", ErrProtocol, k, m.Platform)
		}
		meta, err := wire.DecodeText(m.Payload)
		if err != nil {
			return fmt.Errorf("paramserver: hello meta from client %d: %w", k, err)
		}
		base, err := wire.CutFrameField(meta)
		if err != nil {
			return fmt.Errorf("paramserver: client %d: %w", k, err)
		}
		if base != want {
			return fmt.Errorf("%w: client %d config %q, server %q", ErrConfig, k, base, want)
		}
		if err := conn.Send(&wire.Message{Type: wire.MsgHelloAck, Platform: uint32(k)}); err != nil {
			return fmt.Errorf("paramserver: acking client %d: %w", k, err)
		}
	}
	return nil
}

// ClientConfig configures one data-holding client.
type ClientConfig struct {
	// Scheme must match the server's.
	Scheme *Scheme
	// ID is the client index.
	ID int
	// Model is the client's local replica (same architecture as the
	// server's; weights are overwritten by the first broadcast).
	Model *nn.Sequential
	// Opt is the client's local optimizer (FedAvg only).
	Opt nn.Optimizer
	// Loss computes the training loss.
	Loss nn.Loss
	// Shard is the client's local data.
	Shard *dataset.Dataset
	// Batch is the local minibatch size.
	Batch int
	// LocalSteps is the number of local minibatch steps per round
	// (FedAvg only: E·|D|/B in step form; default 1 = FedSGD).
	LocalSteps int
	// Rounds must match the server.
	Rounds int
	// EvalEvery must match the server (clients snapshot their traffic at
	// evaluation rounds so the harness can align bytes with accuracy).
	EvalEvery int
	// Seed seeds the minibatch sampler.
	Seed uint64
	// Meter, when set, enables traffic snapshots.
	Meter *transport.Meter
}

// RoundStat records the mean local loss of one round.
type RoundStat struct {
	Round int
	Loss  float64
}

// ByteStat snapshots cumulative training traffic at a round boundary.
type ByteStat struct {
	Round         int
	TrainingBytes int64
}

// ClientStats is everything a client measured.
type ClientStats struct {
	Rounds []RoundStat
	Bytes  []ByteStat
}

// Client runs the client side of the protocol.
type Client struct {
	cfg     ClientConfig
	sampler *dataset.BatchSampler
}

// NewClient validates cfg and builds a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("%w: nil scheme", ErrConfig)
	}
	if cfg.Model == nil || cfg.Loss == nil {
		return nil, fmt.Errorf("%w: nil model/loss", ErrConfig)
	}
	if cfg.Scheme.clientOpt && cfg.Opt == nil {
		return nil, fmt.Errorf("%w: %s client without an optimizer", ErrConfig, cfg.Scheme.name)
	}
	if cfg.Shard == nil || cfg.Shard.Len() == 0 {
		return nil, fmt.Errorf("%w: client %d has no data", ErrConfig, cfg.ID)
	}
	if cfg.Batch <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("%w: batch %d rounds %d", ErrConfig, cfg.Batch, cfg.Rounds)
	}
	if cfg.LocalSteps <= 0 {
		cfg.LocalSteps = 1
	}
	indices := make([]int, cfg.Shard.Len())
	for i := range indices {
		indices[i] = i
	}
	return &Client{
		cfg:     cfg,
		sampler: dataset.NewBatchSampler(indices, cfg.Batch, rng.New(cfg.Seed^0x9e3779b97f4a7c15)),
	}, nil
}

// Run executes the client protocol over conn and returns measurements.
func (c *Client) Run(conn transport.Conn) (*ClientStats, error) {
	scheme := c.cfg.Scheme
	if err := conn.Send(&wire.Message{
		Type:     wire.MsgHello,
		Platform: uint32(c.cfg.ID),
		Payload:  wire.EncodeText(hello(scheme, c.cfg.Rounds, c.cfg.EvalEvery) + wire.FrameField()),
	}); err != nil {
		return nil, fmt.Errorf("paramserver: client %d hello: %w", c.cfg.ID, err)
	}
	if _, err := recvExpect(conn, wire.MsgHelloAck, -1); err != nil {
		return nil, fmt.Errorf("paramserver: client %d handshake: %w", c.cfg.ID, err)
	}
	stats := &ClientStats{}
	params := c.cfg.Model.Params()
	state := nn.CollectState(c.cfg.Model)
	var scratch []*tensor.Tensor
	scalar := tensor.New()
	var push payloadSizer
	for r := 0; r < c.cfg.Rounds; r++ {
		m, err := recvExpect(conn, wire.MsgModelPush, r)
		if err != nil {
			return nil, fmt.Errorf("paramserver: client %d round %d: %w", c.cfg.ID, r, err)
		}
		// The broadcast payload is shared across clients over in-process
		// pipes, so it is decoded (through reusable scratch) but never
		// released — only the server, which knows when every client has
		// moved on, may recycle it.
		scratch, err = nn.DecodeModelScratch(scratch, params, state, m.Payload)
		if err != nil {
			return nil, fmt.Errorf("paramserver: client %d installing model: %w", c.cfg.ID, err)
		}
		loss, weight := scheme.local(c, params)
		stats.Rounds = append(stats.Rounds, RoundStat{Round: r, Loss: loss})

		scalar.Set(float32(weight))
		if err := conn.Send(&wire.Message{
			Type:     scheme.push,
			Platform: uint32(c.cfg.ID),
			Round:    uint32(r),
			Payload:  push.encodePush(scheme, params, state, scalar),
		}); err != nil {
			return nil, fmt.Errorf("paramserver: client %d pushing: %w", c.cfg.ID, err)
		}
		if evalRound(c.cfg.EvalEvery, c.cfg.Rounds, r) && c.cfg.Meter != nil {
			stats.Bytes = append(stats.Bytes, ByteStat{Round: r, TrainingBytes: trainingBytes(c.cfg.Meter)})
		}
	}
	if err := conn.Send(&wire.Message{Type: wire.MsgBye, Platform: uint32(c.cfg.ID)}); err != nil {
		return nil, fmt.Errorf("paramserver: client %d bye: %w", c.cfg.ID, err)
	}
	return stats, nil
}

// backward runs one local minibatch forward and backward, leaving its
// gradient in params, and returns the loss and the batch's row count.
// It is SyncSGD's whole round and one step of FedAvg's.
func (c *Client) backward(params []*nn.Param) (loss float64, rows int) {
	x, labels := c.cfg.Shard.Batch(c.sampler.Next())
	nn.ZeroGrads(params)
	logits := c.cfg.Model.Forward(x, true)
	loss, g := c.cfg.Loss.Loss(logits, labels)
	c.cfg.Model.Backward(g)
	return loss, len(labels)
}

// payloadSizer remembers the largest payload a call site has produced
// so the next round's pooled buffer is already big enough and the
// appends never reallocate (same idiom as the core engine's wire path).
// Encoders append to get's buffer and pass the result through keep.
type payloadSizer struct{ max int }

func (ps *payloadSizer) get() []byte { return wire.Buffers.Get(ps.max) }

func (ps *payloadSizer) keep(buf []byte) []byte {
	if len(buf) > ps.max {
		ps.max = len(buf)
	}
	return buf
}

// encodePush packs a client's push — one shipped tensor per parameter,
// the normalization state, then the aggregation-weight scalar — into a
// pooled buffer.
func (ps *payloadSizer) encodePush(scheme *Scheme, params []*nn.Param, state []*tensor.Tensor, weight *tensor.Tensor) []byte {
	buf := ps.get()
	for _, p := range params {
		buf = scheme.ship(p).AppendTo(buf)
	}
	for _, t := range state {
		buf = t.AppendTo(buf)
	}
	return ps.keep(weight.AppendTo(buf))
}

// decodePush decodes a push payload — one tensor per entry of shapes,
// then the aggregation-weight scalar — validating every shape against
// the global model's. It reuses the caller's staging tensors (grown on
// first use; the last slot holds the scalar), so the server's
// steady-state receive path decodes without allocating. Decoded tensors
// never alias buf, so the caller may release the payload immediately
// after.
func decodePush(ts []*tensor.Tensor, buf []byte, shapes []*tensor.Tensor) ([]*tensor.Tensor, int, error) {
	if len(ts) != len(shapes)+1 {
		ts = make([]*tensor.Tensor, len(shapes)+1)
	}
	for i, shape := range shapes {
		t, rest, err := tensor.DecodeInto(ts[i], buf)
		if err != nil {
			return ts, 0, fmt.Errorf("%w: tensor %d: %v", ErrProtocol, i, err)
		}
		ts[i] = t
		if !tensor.SameShape(t, shape) {
			return ts, 0, fmt.Errorf("%w: tensor %d shape %v, want %v", ErrProtocol, i, t.Shape(), shape.Shape())
		}
		buf = rest
	}
	scalar, rest, err := tensor.DecodeInto(ts[len(shapes)], buf)
	if err != nil || scalar.Size() != 1 || len(rest) != 0 {
		return ts, 0, fmt.Errorf("%w: bad weight trailer", ErrProtocol)
	}
	ts[len(shapes)] = scalar
	n := int(scalar.At())
	if n <= 0 {
		return ts, 0, fmt.Errorf("%w: aggregation weight %d", ErrProtocol, n)
	}
	return ts, n, nil
}

// trainingBytes counts a client's parameter-exchange traffic: the
// broadcasts it received and the pushes (of either scheme) it sent.
func trainingBytes(m *transport.Meter) int64 {
	return m.RxBytesByType(wire.MsgModelPush) + m.TxBytesByType(wire.MsgModelPush) + m.TxBytesByType(wire.MsgGradPush)
}

// recvExpect reads one message and validates type and round.
func recvExpect(conn transport.Conn, want wire.MsgType, round int) (*wire.Message, error) {
	m, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("paramserver: receiving %s: %w", want, err)
	}
	if m.Type != want {
		return nil, fmt.Errorf("%w: got %s, want %s", ErrProtocol, m.Type, want)
	}
	if round >= 0 && m.Round != uint32(round) {
		return nil, fmt.Errorf("%w: %s for round %d, want %d", ErrProtocol, m.Type, m.Round, round)
	}
	return m, nil
}

// RunLocal wires a server and clients over in-process pipes and runs
// the full session, returning the server stats and per-client stats.
func RunLocal(server *Server, clients []*Client) (*ServerStats, []*ClientStats, error) {
	serverConns := make([]transport.Conn, len(clients))
	clientConns := make([]transport.Conn, len(clients))
	for k, c := range clients {
		s, cc := transport.Pipe()
		serverConns[k] = s
		if c.cfg.Meter != nil {
			cc = transport.Metered(cc, c.cfg.Meter)
		}
		clientConns[k] = cc
	}
	return RunConnected(server, clients, serverConns, clientConns)
}

// RunConnected runs the full session over caller-provided connections:
// serverConns[k] and clientConns[k] are the two ends of client k's link
// (pipes, TCP, or a simulated WAN — see internal/simnet). The caller
// applies any metering wrapper to the client ends before passing them
// in; RunConnected owns the connections from here on and closes them
// all before returning, so a failing party always unblocks the others.
func RunConnected(server *Server, clients []*Client, serverConns, clientConns []transport.Conn) (*ServerStats, []*ClientStats, error) {
	defer func() {
		for _, conns := range [][]transport.Conn{serverConns, clientConns} {
			for _, c := range conns {
				if c != nil {
					c.Close()
				}
			}
		}
	}()
	if server == nil {
		return nil, nil, fmt.Errorf("%w: nil server", ErrConfig)
	}
	if len(clients) != server.cfg.Clients {
		return nil, nil, fmt.Errorf("%w: %d clients for a %d-client server", ErrConfig, len(clients), server.cfg.Clients)
	}
	if len(serverConns) != len(clients) || len(clientConns) != len(clients) {
		return nil, nil, fmt.Errorf("%w: %d clients with %d server / %d client connections",
			ErrConfig, len(clients), len(serverConns), len(clientConns))
	}

	var serverStats *ServerStats
	clientStats := make([]*ClientStats, len(clients))
	errs := make([]error, len(clients)+1)
	var wg sync.WaitGroup
	wg.Add(len(clients) + 1)
	go func() {
		defer wg.Done()
		st, err := server.Serve(serverConns)
		if err != nil {
			errs[0] = fmt.Errorf("server: %w", err)
			for _, c := range serverConns {
				c.Close()
			}
			return
		}
		serverStats = st
	}()
	for k, c := range clients {
		go func() {
			defer wg.Done()
			st, err := c.Run(clientConns[k])
			if err != nil {
				errs[k+1] = fmt.Errorf("client %d: %w", k, err)
				clientConns[k].Close()
				return
			}
			clientStats[k] = st
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	return serverStats, clientStats, nil
}
