// Package transport carries wire.Messages between platforms and the
// central server. It provides an in-process transport (for simulations,
// tests and benchmarks), a TCP transport (for real deployments — see
// cmd/splitserver and cmd/splitplatform), and a metering wrapper that
// counts every byte in both directions, per message type. Byte counting
// lives at the transport boundary so no protocol can accidentally
// under-report its communication volume.
package transport

import (
	"errors"
	"sync/atomic"

	"medsplit/internal/wire"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is a bidirectional, ordered message stream. Send and Recv may be
// called from different goroutines; neither may be called concurrently
// with itself.
//
// Payload ownership: a message handed to Send belongs to the connection
// (and, transitively, to the peer — the in-process pipe transport
// delivers the same bytes by reference) from the moment Send is
// called; the caller must not mutate, reuse or pool the payload
// afterwards. A message returned by
// Recv belongs to the caller, which may recycle the payload through
// wire.Buffers once decoded. This is what lets both transports run the
// steady-state round loop without payload allocations: senders draw
// encode buffers from the pool, receivers release them after decode.
type Conn interface {
	Send(m *wire.Message) error
	Recv() (*wire.Message, error)
	Close() error
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// Meter counts traffic crossing a connection. All methods are safe for
// concurrent use. The zero value is ready to use.
//
// Happens-before contract: the counters are lock-free atomics, so a
// concurrent read is never a data race — but it may observe a total
// that is mid-round, because another party's goroutine may be counting
// at the same moment. A reader that needs a *final* total must
// establish happens-before with every goroutine that touched the
// meter: in this repo, core.RunConnected joins the server and all
// platform goroutines before returning, so meter reads after it are
// exact.
// Mid-session snapshots (the platform's per-eval TrainingBytes) are
// exact for a different reason: the protocol's request/response
// causality guarantees every training message of the finished round was
// flushed before the snapshot point.
type Meter struct {
	txBytes atomic.Int64
	rxBytes atomic.Int64
	txMsgs  atomic.Int64
	rxMsgs  atomic.Int64

	// Per message type, indexed by wire.MsgType.
	txByType [32]atomic.Int64
	rxByType [32]atomic.Int64
}

// CountTx records an outbound message.
func (mt *Meter) CountTx(m *wire.Message) {
	mt.txBytes.Add(int64(m.WireSize()))
	mt.txMsgs.Add(1)
	mt.txByType[int(m.Type)].Add(int64(m.WireSize()))
}

// CountRx records an inbound message.
func (mt *Meter) CountRx(m *wire.Message) {
	mt.rxBytes.Add(int64(m.WireSize()))
	mt.rxMsgs.Add(1)
	mt.rxByType[int(m.Type)].Add(int64(m.WireSize()))
}

// TxBytes returns total bytes sent.
func (mt *Meter) TxBytes() int64 { return mt.txBytes.Load() }

// RxBytes returns total bytes received.
func (mt *Meter) RxBytes() int64 { return mt.rxBytes.Load() }

// TotalBytes returns bytes moved in both directions.
func (mt *Meter) TotalBytes() int64 { return mt.TxBytes() + mt.RxBytes() }

// TxMessages returns the number of messages sent.
func (mt *Meter) TxMessages() int64 { return mt.txMsgs.Load() }

// RxMessages returns the number of messages received.
func (mt *Meter) RxMessages() int64 { return mt.rxMsgs.Load() }

// TxBytesByType returns bytes sent with the given message type.
func (mt *Meter) TxBytesByType(t wire.MsgType) int64 { return mt.txByType[int(t)].Load() }

// RxBytesByType returns bytes received with the given message type.
func (mt *Meter) RxBytesByType(t wire.MsgType) int64 { return mt.rxByType[int(t)].Load() }

// meteredConn wraps a Conn and counts traffic on a Meter.
type meteredConn struct {
	inner Conn
	meter *Meter
}

var _ Conn = (*meteredConn)(nil)

// Metered wraps c so all traffic is counted on meter.
func Metered(c Conn, meter *Meter) Conn {
	return &meteredConn{inner: c, meter: meter}
}

func (m *meteredConn) Send(msg *wire.Message) error {
	if err := m.inner.Send(msg); err != nil {
		return err
	}
	m.meter.CountTx(msg)
	return nil
}

func (m *meteredConn) Recv() (*wire.Message, error) {
	msg, err := m.inner.Recv()
	if err != nil {
		return nil, err
	}
	m.meter.CountRx(msg)
	return msg, nil
}

func (m *meteredConn) Close() error { return m.inner.Close() }
