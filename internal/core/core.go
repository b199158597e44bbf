// Package core implements the paper's contribution: a split-learning
// engine for geo-distributed medical platforms. The network's first
// hidden layer (L1) lives on each platform next to the raw patient
// data; the remaining layers (L2 … Lk) live on a central server. Per
// minibatch the parties exchange exactly four messages (paper Fig. 2/3):
//
//  1. platform → server  MsgActivations  L1 output on the minibatch
//  2. server → platform  MsgLogits       Lk output after server forward
//  3. platform → server  MsgLossGrad     dLoss/dLogits (labels stay local)
//  4. server → platform  MsgCutGrad      dLoss/d(L1 output)
//
// Raw inputs and labels never cross the wire in the default
// (label-private) mode — the privacy tests in this package assert it.
// The engine also implements the paper's data-imbalance mitigation
// (per-platform minibatch sizes proportional to local data volume, via
// package dataset), an optional label-sharing ablation that halves the
// message count at the cost of label privacy, an optional periodic L1
// weight synchronization, and two server scheduling modes, the first
// with one consistency knob (a staleness cap).
package core

import (
	"errors"
	"fmt"
	"sync"

	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// RoundMode selects how the server combines the platforms' minibatches
// within a round.
type RoundMode int

// Round modes. Sequential processes each platform's minibatch as its
// own forward/backward/step (k optimizer steps per round, the reading
// most consistent with the paper's flowchart). Concat fuses all
// platforms' minibatches into one batch and takes a single step per
// round on the union gradient. Both finish every platform's exchange
// for round r before any exchange of round r+1 starts, unless
// ServerConfig.Staleness relaxes sequential's lockstep in exchange for
// wall-clock (see README "Consistency spectrum"): with a cap K > 0 the
// server applies each platform's updates as they arrive, and an
// exchange may miss at most K rounds of the other platforms' updates.
// The cap is the only consistency knob. SplitFed-style local-parallel
// training between L1 averaging barriers is the cap at or above the
// averaging period (K >= L1SyncEvery), because no window of the
// schedule crosses a sync boundary.
const (
	RoundModeSequential RoundMode = iota + 1
	RoundModeConcat
)

// RoundModeBoundedStaleness is the sequential schedule under its former
// name: a staleness cap selects bounded staleness on its own.
//
// Deprecated: set ServerConfig.Staleness and leave Mode sequential.
const RoundModeBoundedStaleness = RoundModeSequential

// String names the mode.
func (m RoundMode) String() string {
	switch m {
	case RoundModeSequential:
		return "sequential"
	case RoundModeConcat:
		return "concat"
	default:
		return fmt.Sprintf("roundmode(%d)", int(m))
	}
}

// ParseRoundMode returns the round mode String names.
func ParseRoundMode(name string) (RoundMode, error) {
	for m := RoundModeSequential; m <= RoundModeConcat; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown round mode %q (want sequential or concat)", ErrConfig, name)
}

// Protocol errors.
var (
	// ErrProtocol reports an out-of-sequence or malformed message.
	ErrProtocol = errors.New("core: protocol violation")
	// ErrConfig reports an invalid or inconsistent configuration.
	ErrConfig = errors.New("core: invalid configuration")
	// ErrStopped reports a graceful shutdown: the party finished its
	// round, wrote its final checkpoint (when configured) and left the
	// session on purpose (see Server.Stop / Platform.Stop).
	ErrStopped = errors.New("core: stopped at round boundary by request")
)

// TraceEvent records one protocol step as observed by a party. The
// trace reproduces the paper's Fig. 3 workflow and feeds the
// sequence-validation tests.
type TraceEvent struct {
	Party    string // "server" or "platform-<id>"
	Dir      string // "send" or "recv"
	Type     wire.MsgType
	Platform int
	Round    int
	Bytes    int
}

// String renders the event compactly.
func (e TraceEvent) String() string {
	return fmt.Sprintf("%s %s %s p%d r%d %dB", e.Party, e.Dir, e.Type, e.Platform, e.Round, e.Bytes)
}

// TraceFunc observes protocol events. Implementations must be fast; the
// engine calls them inline.
type TraceFunc func(TraceEvent)

// Recorder is a thread-safe TraceFunc that stores events.
type Recorder struct {
	mu     sync.Mutex
	events []TraceEvent
}

// Record appends an event; pass bound method Recorder.Record as a
// TraceFunc.
func (r *Recorder) Record(e TraceEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]TraceEvent(nil), r.events...)
}

// trainingTypes are the message types whose bytes count as training
// communication — the quantity the paper's Fig. 4 reports. Session
// control (hello, ack, bye) and evaluation traffic are excluded.
var trainingTypes = []wire.MsgType{
	wire.MsgActivations,
	wire.MsgLogits,
	wire.MsgLossGrad,
	wire.MsgCutGrad,
	wire.MsgLabels,
	wire.MsgModelPull,
	wire.MsgModelPush,
	wire.MsgGradPush,
}

// TrainingTraffic sums the bytes a meter sent and received for
// training message types only.
func TrainingTraffic(m *transport.Meter) (tx, rx int64) {
	for _, t := range trainingTypes {
		tx += m.TxBytesByType(t)
		rx += m.RxBytesByType(t)
	}
	return tx, rx
}

// TrainingBytes sums the bytes a meter saw, in both directions, for
// training message types only.
func TrainingBytes(m *transport.Meter) int64 {
	tx, rx := TrainingTraffic(m)
	return tx + rx
}

// recvExpect reads one message and validates its type (and, when round
// >= 0, its round number).
func recvExpect(conn transport.Conn, want wire.MsgType, round int) (*wire.Message, error) {
	m, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("core: receiving %s: %w", want, err)
	}
	if m.Type == wire.MsgErrorMsg {
		text, terr := wire.DecodeText(m.Payload)
		if terr != nil {
			text = "(unreadable)"
		}
		return nil, fmt.Errorf("%w: peer error: %s", ErrProtocol, text)
	}
	if m.Type != want {
		return nil, fmt.Errorf("%w: got %s, want %s", ErrProtocol, m.Type, want)
	}
	if round >= 0 && m.Round != uint32(round) {
		return nil, fmt.Errorf("%w: %s for round %d, want %d", ErrProtocol, m.Type, m.Round, round)
	}
	return m, nil
}
