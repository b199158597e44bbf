package transport

import (
	"sync"

	"medsplit/internal/wire"
)

// Reconnectable is a connection endpoint whose underlying transport can
// be replaced mid-session — the plumbing under dropout recovery. The
// protocol layer holds one stable Conn value per peer; when a link dies
// (WAN drop, platform restart) the recovery logic establishes a fresh
// transport (a new TCP dial, a new accepted connection, a new pipe) and
// Swaps it in. Send/Recv simply delegate to the current transport, so
// every other layer — metering, the protocol loops — stays oblivious
// to reconnection.
//
// Reconnectable does not retry by itself: a Send or Recv that hits a
// dead transport still returns the error. Retrying is a protocol
// decision (which messages to replay, which to resend) that lives in
// the session layer (see core's rejoin handshake); this wrapper only
// guarantees that after Swap the same endpoint value talks over the
// new link.
//
// Swap is safe to call concurrently with Send/Recv: an operation
// already in flight finishes (or fails) on the transport it started
// on, and the next operation uses the replacement.
type Reconnectable struct {
	mu    sync.RWMutex
	cur   Conn
	swaps int
}

var _ Conn = (*Reconnectable)(nil)

// NewReconnectable wraps an established connection.
func NewReconnectable(c Conn) *Reconnectable {
	return &Reconnectable{cur: c}
}

// Swap installs a replacement transport and returns the previous one
// (which the caller should close — Swap does not, because the old
// transport may still be finishing an in-flight operation).
func (r *Reconnectable) Swap(c Conn) Conn {
	r.mu.Lock()
	old := r.cur
	r.cur = c
	r.swaps++
	r.mu.Unlock()
	return old
}

// Swaps returns how many times the transport has been replaced.
func (r *Reconnectable) Swaps() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.swaps
}

// Current returns the transport currently in use.
func (r *Reconnectable) Current() Conn {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cur
}

// Send transmits on the current transport.
func (r *Reconnectable) Send(m *wire.Message) error {
	return r.Current().Send(m)
}

// Recv receives from the current transport.
func (r *Reconnectable) Recv() (*wire.Message, error) {
	return r.Current().Recv()
}

// Close closes the current transport.
func (r *Reconnectable) Close() error {
	return r.Current().Close()
}
