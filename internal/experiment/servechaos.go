package experiment

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sync"
	"time"

	"medsplit/internal/geonet"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/serve"
	"medsplit/internal/simnet"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
)

// ServeChaosConfig scripts one chaos run over the serving tier: the
// same tenant × platform load matrix as RunServeLoad, plus a fault
// script and the client resilience policy that must absorb it.
type ServeChaosConfig struct {
	// Load is the underlying traffic matrix (tenants, platforms,
	// requests, batching, model recipe). Seed also drives the fault
	// placement helper ChaosFaultScript.
	Load ServeLoadConfig
	// Faults is the simnet fault script for the chaos run. The
	// fault-free reference run never sees it.
	Faults []simnet.Fault
	// Timeout / MaxAttempts / Backoff / HedgeAfter configure each
	// client's serve.RetryPolicy (defaults 250ms / 4 / 1ms / off).
	Timeout     time.Duration
	MaxAttempts int
	Backoff     time.Duration
	HedgeAfter  time.Duration
}

func (c ServeChaosConfig) withDefaults() ServeChaosConfig {
	c.Load = c.Load.withDefaults()
	if c.Timeout == 0 {
		c.Timeout = 250 * time.Millisecond
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 4
	}
	if c.Backoff == 0 {
		c.Backoff = time.Millisecond
	}
	return c
}

// ServeChaosResult is the verdict of one chaos run, compared against
// its fault-free twin.
type ServeChaosResult struct {
	Requests  int // logical requests issued across all platforms
	Succeeded int // answered with logits
	Failed    int // failed with a typed, classified error after the retry budget
	// Mismatched counts successful responses whose logits bytes
	// differed from the fault-free run. RunServeChaos returns an error
	// when it is nonzero; it is reported for completeness.
	Mismatched int

	// Client-side resilience totals across all platforms.
	Retries  int64
	Hedges   int64
	Redials  int64
	Timeouts int64
	Remote   int64

	// Server is the serving tier's own view of the chaos run.
	Server serve.InferStats
	// SimElapsed is the chaos run's virtual WAN time.
	SimElapsed time.Duration
}

// ChaosFaultScript builds a deterministic serving-phase fault mix for
// a platforms × requests load: a seeded rotation of message drops,
// virtual delay spikes, real-time server stalls and mid-stream severs
// spread across roughly every third platform. Stalls and the delays
// that must outlive a client timeout scale with the given timeout.
func ChaosFaultScript(platforms, requests int, timeout time.Duration, seed uint64) []simnet.Fault {
	r := rng.New(seed ^ 0xC4A05)
	var faults []simnet.Fault
	for k := 0; k < platforms; k += 3 {
		round := 1 + r.Intn(requests) // attempt seqs start at 1
		dir := simnet.DirUp
		if r.Intn(2) == 1 {
			dir = simnet.DirDown
		}
		switch k / 3 % 4 {
		case 0: // lose one message on a healthy link
			faults = append(faults, simnet.Fault{
				Platform: k, Round: round, Dir: dir, Kind: simnet.FaultDrop,
			})
		case 1: // virtual latency spike
			faults = append(faults, simnet.Fault{
				Platform: k, Round: round, Dir: dir, Kind: simnet.FaultDelaySpike,
				Delay: 500 * time.Millisecond,
			})
		case 2: // real-time server stall, long enough to trip the timeout
			faults = append(faults, simnet.Fault{
				Platform: k, Round: round, Dir: simnet.DirDown, Kind: simnet.FaultStall,
				Hold: timeout + timeout/2,
			})
		case 3: // connection severed mid-stream
			faults = append(faults, simnet.Fault{
				Platform: k, Round: round, Dir: dir, Kind: simnet.FaultSever,
			})
		}
	}
	return faults
}

// RunServeChaos proves the serving tier's failure contract: it drives
// the load matrix twice over the simulated WAN — once fault-free, once
// under cfg.Faults with the full client resilience stack (timeouts,
// retries, failover redials, optional hedging) — and checks that in
// the chaos run every logical request either succeeds with logits
// bit-identical to the fault-free run or fails fast with a typed,
// classified error. Any untyped failure, any byte mismatch, or any
// fault-free-run failure is returned as an error.
func RunServeChaos(cfg ServeChaosConfig) (*ServeChaosResult, error) {
	cfg = cfg.withDefaults()
	lc := cfg.Load
	if lc.Tenants > lc.Platforms {
		return nil, fmt.Errorf("experiment: %d tenants need at least as many platforms, have %d", lc.Tenants, lc.Platforms)
	}

	// Reference run: no faults, no policy. Every request must succeed;
	// its digests are the ground truth for the chaos run.
	ref, _, _, err := runServeMatrix(lc, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("experiment: fault-free reference run: %w", err)
	}
	for k := range ref {
		for i, out := range ref[k] {
			if out.err != nil {
				return nil, fmt.Errorf("experiment: fault-free reference run: platform %d request %d: %w", k, i, out.err)
			}
		}
	}

	policy := &serve.RetryPolicy{
		Timeout:     cfg.Timeout,
		MaxAttempts: cfg.MaxAttempts,
		Backoff:     cfg.Backoff,
		HedgeAfter:  cfg.HedgeAfter,
	}
	chaos, stats, elapsed, err := runServeMatrix(lc, cfg.Faults, policy)
	if err != nil {
		return nil, err
	}

	res := &ServeChaosResult{
		Requests:   lc.Platforms * lc.RequestsPerPlatform,
		Server:     stats.server,
		SimElapsed: elapsed,
	}
	for _, cs := range stats.clients {
		res.Retries += cs.Retries
		res.Hedges += cs.Hedges
		res.Redials += cs.Redials
		res.Timeouts += cs.Timeouts
		res.Remote += cs.Remote
	}
	var firstErr error
	for k := range chaos {
		for i, out := range chaos[k] {
			switch {
			case out.err == nil && out.digest == ref[k][i].digest:
				res.Succeeded++
			case out.err == nil:
				res.Mismatched++
				if firstErr == nil {
					firstErr = fmt.Errorf("experiment: platform %d request %d: logits diverged from fault-free run (digest %x != %x)",
						k, i, out.digest, ref[k][i].digest)
				}
			case typedServeError(out.err):
				res.Failed++
			default:
				if firstErr == nil {
					firstErr = fmt.Errorf("experiment: platform %d request %d: untyped failure: %w", k, i, out.err)
				}
			}
		}
	}
	return res, firstErr
}

// typedServeError reports whether err is part of the serving tier's
// declared failure vocabulary: a structured remote rejection, an
// attempt timeout, or a connection-level error the transport
// classifies. Anything else is a contract violation the chaos run
// must surface.
func typedServeError(err error) bool {
	var remote *serve.RemoteError
	return errors.As(err, &remote) ||
		errors.Is(err, serve.ErrAttemptTimeout) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, transport.ErrClosed)
}

// requestOutcome is one logical request's result in a matrix run.
type requestOutcome struct {
	digest uint64
	err    error
}

// matrixStats aggregates one run's client and server counters.
type matrixStats struct {
	clients []serve.ClientStats
	server  serve.InferStats
}

// runServeMatrix drives the tenant × platform load once over a fresh
// simulated WAN, applying the given fault script and client policy
// (both may be nil for a clean reference run), and returns per-request
// outcomes. Request inputs depend only on (platform, request index),
// never on retry behavior, so two runs of the same load are
// byte-comparable.
func runServeMatrix(lc ServeLoadConfig, faults []simnet.Fault, policy *serve.RetryPolicy) ([][]requestOutcome, *matrixStats, time.Duration, error) {
	topo, regions := geonet.SyntheticClinics(lc.Platforms, lc.Seed)
	wan, pairs, err := simnet.FromTopology(topo, regions, simnet.Options{
		Seed:   lc.Seed + 0x5E21E,
		Jitter: lc.SimJitter,
		Faults: faults,
	})
	if err != nil {
		return nil, nil, 0, err
	}

	tenants := make([]serve.TenantConfig, lc.Tenants)
	for i := range tenants {
		mcfg := lc.tenantModelConfig(i)
		tenants[i] = serve.TenantConfig{
			Name: fmt.Sprintf("tenant-%d", i),
			BuildBack: func() (*nn.Sequential, error) {
				m, err := BuildModel(mcfg)
				if err != nil {
					return nil, err
				}
				_, back, err := models.Split(m.Net, m.DefaultCut)
				return back, err
			},
		}
	}
	mgr, err := serve.NewManager(serve.Config{Tenants: tenants, ComputeSlots: lc.ComputeSlots})
	if err != nil {
		return nil, nil, 0, err
	}
	defer mgr.Close()
	is, err := serve.NewInferenceServer(mgr, serve.InferConfig{
		BatchMax:   lc.BatchMax,
		FlushEvery: lc.FlushEvery,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	defer is.Close()

	// serveConn tracks every server-side reader, including the ones
	// redials spawn mid-run, so the matrix never leaks a goroutine.
	var serverWG sync.WaitGroup
	serveConn := func(c transport.Conn) {
		serverWG.Add(1)
		go func() {
			defer serverWG.Done()
			_ = is.HandleConn(c)
		}()
	}

	outcomes := make([][]requestOutcome, lc.Platforms)
	stats := &matrixStats{clients: make([]serve.ClientStats, lc.Platforms)}
	fatal := make([]error, lc.Platforms)
	var clientWG sync.WaitGroup
	for k := 0; k < lc.Platforms; k++ {
		serveConn(pairs[k].Server)
		clientWG.Add(1)
		go func(k int) {
			defer clientWG.Done()
			fatal[k] = runChaosClient(lc, k, pairs[k].Platform, wan, policy, serveConn,
				&outcomes[k], &stats.clients[k])
			// A client that ended with its connection torn down leaves
			// the current segment's server reader blocked; severing the
			// segment (the replacement endpoints go unused) is what
			// guarantees every HandleConn goroutine unblocks. Harmless
			// after a clean Bye.
			_, _, _ = wan.Redial(k)
		}(k)
	}
	clientWG.Wait()
	serverWG.Wait()
	if err := errors.Join(fatal...); err != nil {
		return nil, nil, 0, err
	}
	stats.server = is.Stats()
	return outcomes, stats, wan.Elapsed(), nil
}

// runChaosClient is one platform's request loop. Per-request failures
// are recorded as outcomes, never returned: the run must prove the
// tier keeps serving around them. Only setup failures (model build)
// are fatal.
func runChaosClient(lc ServeLoadConfig, k int, conn transport.Conn, wan *simnet.Network,
	policy *serve.RetryPolicy, serveConn func(transport.Conn),
	out *[]requestOutcome, cs *serve.ClientStats) error {
	tenantIdx := k % lc.Tenants
	mcfg := lc.tenantModelConfig(tenantIdx)
	m, err := BuildModel(mcfg)
	if err != nil {
		return err
	}
	front, _, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		return err
	}
	client := serve.NewClient(conn, front, fmt.Sprintf("tenant-%d", tenantIdx), uint32(k))
	defer client.Close()
	if policy != nil {
		p := *policy
		p.Seed = lc.Seed + 0xBACC0FF + uint64(k)
		client.SetPolicy(p)
		client.SetRedial(func() (transport.Conn, error) {
			serverEnd, platformEnd, err := wan.Redial(k)
			if err != nil {
				return nil, err
			}
			serveConn(serverEnd)
			return platformEnd, nil
		})
	}
	r := rng.New(lc.Seed + 0xC11E47 + uint64(k))
	shape := append([]int{lc.RequestRows}, m.InputShape...)
	x := tensor.New(shape...)
	for i := 0; i < lc.RequestsPerPlatform; i++ {
		// The input stream advances once per logical request no matter
		// how the previous one ended, so outcome i is byte-comparable
		// across runs with different fault scripts.
		r.NormFloat32s(x.Data())
		y, err := client.Infer(x)
		if err != nil {
			*out = append(*out, requestOutcome{err: err})
			continue
		}
		if y.Dim(0) != lc.RequestRows || y.Dim(1) != lc.Classes {
			*out = append(*out, requestOutcome{err: fmt.Errorf("experiment: logits shape %v, want [%d %d]",
				y.Shape(), lc.RequestRows, lc.Classes)})
			continue
		}
		*out = append(*out, requestOutcome{digest: digestTensor(y)})
	}
	*cs = client.Stats()
	return nil
}

// digestTensor is a 64-bit FNV-1a over the tensor's float bits —
// byte-identical logits, identical digest.
func digestTensor(t *tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range t.Data() {
		bits := math.Float32bits(v)
		b[0] = byte(bits)
		b[1] = byte(bits >> 8)
		b[2] = byte(bits >> 16)
		b[3] = byte(bits >> 24)
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}
