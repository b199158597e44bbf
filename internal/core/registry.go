package core

import (
	"medsplit/internal/transport"
)

// platformRegistry owns the server's per-platform connection state. It
// replaced the raw fixed-size slice when sessions grew from a handful
// of hospitals toward O(100) clinics: every scheduler, the recovery
// machinery and the shutdown path now go through one API with
// deterministic id-ordered iteration and status bookkeeping, so code
// that cares about "the active platforms" never re-derives that set
// with ad-hoc loops. Lookups stay O(1) and iteration allocation-free —
// a registry entry is created per connection at Serve time and lives
// for the whole session.
//
// The registry is confined to the server's session goroutine (like the
// states it holds); it needs no locking.
type platformRegistry struct {
	states []*platformState
}

// newPlatformRegistry builds one entry per connection, wrapping each in
// a Reconnectable when recovery needs to swap transports mid-session.
func newPlatformRegistry(conns []transport.Conn, withRecovery bool) *platformRegistry {
	reg := &platformRegistry{states: make([]*platformState, len(conns))}
	for k, c := range conns {
		ps := &platformState{conn: c, status: PlatformActive}
		if withRecovery {
			ps.rc = transport.NewReconnectable(c)
			ps.conn = ps.rc
		}
		reg.states[k] = ps
	}
	return reg
}

// state returns platform k's entry.
func (reg *platformRegistry) state(k int) *platformState { return reg.states[k] }

// each visits every platform in id order, stopping at the first error.
func (reg *platformRegistry) each(fn func(k int, ps *platformState) error) error {
	for k, ps := range reg.states {
		if err := fn(k, ps); err != nil {
			return err
		}
	}
	return nil
}

// eachActive visits the platforms currently in lockstep with the
// session, in id order.
func (reg *platformRegistry) eachActive(fn func(k int, ps *platformState) error) error {
	return reg.each(func(k int, ps *platformState) error {
		if ps.status != PlatformActive {
			return nil
		}
		return fn(k, ps)
	})
}
