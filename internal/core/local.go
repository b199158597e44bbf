package core

import (
	"errors"
	"fmt"
	"sync"

	"medsplit/internal/transport"
)

// Meter returns the meter configured for this platform, if any.
func (p *Platform) Meter() *transport.Meter { return p.cfg.Meter }

// ID returns the platform's index.
func (p *Platform) ID() int { return p.cfg.ID }

// RunLocal executes a complete split-learning session in-process: it
// connects every platform to the server over pipe transports (metered
// when the platform has a meter configured), runs all parties to
// completion, and returns the per-platform stats in platform order.
//
// It is the engine behind the simulations, experiments and benchmarks;
// real deployments use the same Server/Platform code over TCP (see
// cmd/splitserver and cmd/splitplatform).
func RunLocal(server *Server, platforms []*Platform) ([]*PlatformStats, error) {
	if server == nil {
		return nil, fmt.Errorf("%w: nil server", ErrConfig)
	}
	serverConns := make([]transport.Conn, len(platforms))
	platformConns := make([]transport.Conn, len(platforms))
	for k, p := range platforms {
		s, c := transport.Pipe()
		serverConns[k] = s
		if p.cfg.Meter != nil {
			c = transport.Metered(c, p.cfg.Meter)
		}
		platformConns[k] = c
	}
	return RunConnected(server, platforms, serverConns, platformConns)
}

// RunConnected executes a session over caller-provided connections:
// serverConns[k] and platformConns[k] are the two ends of platform k's
// link (pipes, TCP, or a simulated WAN — see internal/simnet). The
// caller applies any metering wrapper to the platform ends before
// passing them in; RunConnected owns the connections from here on and
// closes them all before returning, so a failing party always unblocks
// the others. One goroutine drives the server session and one drives
// each platform, in every scheduling mode.
func RunConnected(server *Server, platforms []*Platform, serverConns, platformConns []transport.Conn) ([]*PlatformStats, error) {
	// Close everything on exit — including the validation-error exits
	// below — so a failing party (or a misconfigured harness) always
	// unblocks peers parked in Recv on the other end.
	defer func() {
		for _, c := range serverConns {
			if c != nil {
				c.Close()
			}
		}
		for _, c := range platformConns {
			if c != nil {
				c.Close()
			}
		}
	}()
	if server == nil {
		return nil, fmt.Errorf("%w: nil server", ErrConfig)
	}
	if len(platforms) != server.cfg.Platforms {
		return nil, fmt.Errorf("%w: %d platforms for a %d-platform server", ErrConfig, len(platforms), server.cfg.Platforms)
	}
	if len(serverConns) != len(platforms) || len(platformConns) != len(platforms) {
		return nil, fmt.Errorf("%w: %d platforms with %d server / %d platform connections",
			ErrConfig, len(platforms), len(serverConns), len(platformConns))
	}

	stats := make([]*PlatformStats, len(platforms))
	errs := make([]error, len(platforms)+1)
	var wg sync.WaitGroup
	wg.Add(len(platforms) + 1)
	go func() {
		defer wg.Done()
		if err := server.Serve(serverConns); err != nil {
			errs[0] = fmt.Errorf("server: %w", err)
			// Unblock platforms waiting on the dead server.
			for _, c := range serverConns {
				c.Close()
			}
		}
	}()
	for k, p := range platforms {
		k, p := k, p
		go func() {
			defer wg.Done()
			st, err := p.Run(platformConns[k])
			if err != nil {
				errs[k+1] = fmt.Errorf("platform %d: %w", k, err)
				platformConns[k].Close()
				return
			}
			stats[k] = st
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return stats, nil
}
