// Package serve multiplexes many split-learning tenants onto one
// server process. The paper's deployment model puts the back half of
// every cohort's model on a central aggregation point; internal/core
// runs exactly one such session per process. This package adds the
// production tier above it: a Manager that admits sessions against a
// max-sessions/max-memory budget, keeps per-tenant model and
// checkpoint state isolated (separate tensor and payload pools, so one
// tenant's traffic never recycles through another's buffers), and
// shares server-side compute fairly — round-robin over a fixed slot
// budget — across everything running in the process.
//
// Two workloads ride on the Manager:
//
//   - Training: OpenSession wraps a core.Server with admission control
//     and the shared compute gate. The gate only decides when a
//     session's compute steps run, never in what order, so a session
//     served through the Manager trains bit-identically to a
//     standalone core.RunLocal session (the differential tests compare
//     weight digests).
//   - Inference: InferenceServer (infer.go) answers MsgInferRequest
//     traffic with the back half of each tenant's model, batching
//     requests dynamically and serving from a warm model cache keyed
//     by checkpoint generation (cache.go).
package serve

import (
	"errors"
	"fmt"
	"sync"

	"medsplit/internal/core"
	"medsplit/internal/nn"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// Admission and serving errors. The inference path ships these to
// clients as structured error payloads (wire.EncodeServeError), so
// their classification — not just their text — is part of the protocol
// surface: see errCodeOf for the error → wire.ErrCode mapping.
var (
	ErrUnknownTenant      = errors.New("serve: unknown tenant")
	ErrSessionLimit       = errors.New("serve: session limit reached")
	ErrMemoryBudget       = errors.New("serve: memory budget exceeded")
	ErrManagerClosed      = errors.New("serve: manager closed")
	ErrGenerationMismatch = errors.New("serve: checkpoint generation mismatch")
	ErrConfig             = errors.New("serve: invalid configuration")
	// ErrOverloaded is deterministic load shedding: the tenant's
	// bounded admission queue is full, so the request is refused at the
	// door — with a retry-after hint — instead of buffered without
	// bound. Retryable.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrDeadlineExpired is shed-before-compute: the request's wire
	// deadline passed while it waited, so the server drops it instead
	// of computing logits nobody is waiting for. Retryable (the retry
	// carries a fresh budget).
	ErrDeadlineExpired = errors.New("serve: deadline expired before compute")
)

// TenantConfig describes one tenant: a cohort/model pair with its own
// back-half weights and checkpoint lineage.
type TenantConfig struct {
	// Name identifies the tenant on the wire (see
	// wire.EncodeInferRequest). Required, unique, at most
	// wire.MaxTenantNameLen bytes.
	Name string
	// BuildBack constructs the tenant's server-side model half at its
	// initial weights. The inference path calls it lazily, when it first
	// needs the model, and again for every newer checkpoint it reloads
	// (the snapshot is restored into a fresh model); training sessions
	// bring their own back half in the ServerConfig. Required when the
	// tenant is served inference traffic.
	BuildBack func() (*nn.Sequential, error)
	// CheckpointDir is where the tenant's training sessions write
	// server snapshots. The inference cache watches it: the latest
	// generation (snapshot NextRound) found there is what requests are
	// served from. Empty means the tenant serves BuildBack's initial
	// weights as generation 0.
	CheckpointDir string
	// MaxSessions caps this tenant's concurrent training sessions.
	// 0 means only the Manager-wide cap applies.
	MaxSessions int
	// InferPrecision selects the numeric format the tenant's inference
	// traffic is served at: "" or "f32" (default) serves the f32 back
	// half bit-identically to prior releases; "f16" stores Dense
	// weights in half precision with f32 accumulation (~2⁻¹¹ relative
	// weight rounding); "int8" runs Dense layers through symmetric
	// int8 weights and dynamically quantized activations with int32
	// accumulation (logits track f32 to ~1e-2 absolute on unit-scale
	// activations — see nn.QuantizedInference). Reduced precision
	// applies only to inference; training sessions always run f32.
	InferPrecision string
}

// Config configures a Manager.
type Config struct {
	// Tenants is the static tenant set. Required, non-empty.
	Tenants []TenantConfig
	// MaxSessions caps concurrent training sessions across all
	// tenants. Defaults to 64.
	MaxSessions int
	// MaxMemoryBytes bounds the estimated resident bytes of admitted
	// sessions plus warm inference models (see EstimateSessionBytes).
	// 0 means unbounded.
	MaxMemoryBytes int64
	// ComputeSlots bounds how many parties run back-half compute
	// concurrently (the round-robin slot budget). It is also how many
	// compute lanes one inference tenant may run, so a single busy
	// tenant can fill every slot. Defaults to 1, which serializes all
	// server-side math — the strictest fairness and the setting under
	// which gated sessions are trivially bit-identical to ungated ones.
	ComputeSlots int
}

func (c *Config) validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("%w: no tenants", ErrConfig)
	}
	seen := make(map[string]bool, len(c.Tenants))
	for i := range c.Tenants {
		t := &c.Tenants[i]
		if t.Name == "" || len(t.Name) > wire.MaxTenantNameLen {
			return fmt.Errorf("%w: tenant %d name %q", ErrConfig, i, t.Name)
		}
		if seen[t.Name] {
			return fmt.Errorf("%w: duplicate tenant %q", ErrConfig, t.Name)
		}
		seen[t.Name] = true
		if t.MaxSessions < 0 {
			return fmt.Errorf("%w: tenant %q max sessions %d", ErrConfig, t.Name, t.MaxSessions)
		}
		switch t.InferPrecision {
		case "", "f32", "f16", "int8":
		default:
			return fmt.Errorf("%w: tenant %q infer precision %q (want f32, f16 or int8)", ErrConfig, t.Name, t.InferPrecision)
		}
	}
	if c.MaxSessions < 0 {
		return fmt.Errorf("%w: max sessions %d", ErrConfig, c.MaxSessions)
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.MaxMemoryBytes < 0 {
		return fmt.Errorf("%w: max memory %d", ErrConfig, c.MaxMemoryBytes)
	}
	if c.ComputeSlots < 0 {
		return fmt.Errorf("%w: compute slots %d", ErrConfig, c.ComputeSlots)
	}
	if c.ComputeSlots == 0 {
		c.ComputeSlots = 1
	}
	return nil
}

// tenant is the Manager's per-tenant state: the config, the warm
// inference cache, and the isolated pools the serving path draws
// scratch from. Pool isolation is the memory-safety half of tenancy —
// a tenant's decoded activations and encoded responses only ever
// recycle through its own pools, so a sizing bug or a leaked buffer
// stays contained to the tenant that caused it.
type tenant struct {
	cfg     TenantConfig
	cache   *modelCache
	pool    *tensor.Pool
	buffers *wire.BufferPool

	sessions int // live training sessions (guarded by Manager.mu)
}

// Manager multiplexes tenants onto one process: admission control for
// training sessions, tenant lookup for the inference tier, and the
// shared compute scheduler both workloads draw slots from.
type Manager struct {
	cfg   Config
	sched *computeScheduler

	mu       sync.Mutex
	tenants  map[string]*tenant
	sessions int   // live sessions across tenants
	memory   int64 // admitted estimated bytes
	closed   bool
}

// NewManager validates cfg and builds a Manager.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		sched:   newComputeScheduler(cfg.ComputeSlots),
		tenants: make(map[string]*tenant, len(cfg.Tenants)),
	}
	for _, tc := range cfg.Tenants {
		t := &tenant{
			cfg:     tc,
			pool:    &tensor.Pool{},
			buffers: &wire.BufferPool{},
		}
		t.cache = &modelCache{name: tc.Name, build: tc.BuildBack, dir: tc.CheckpointDir, precision: tc.InferPrecision}
		m.tenants[tc.Name] = t
	}
	return m, nil
}

// tenantByName resolves a tenant under the Manager lock.
func (m *Manager) tenantByName(name string) (*tenant, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrManagerClosed
	}
	t, ok := m.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return t, nil
}

// EstimateSessionBytes is the admission-control cost model for one
// training session: four float32 copies of every back-half parameter
// (weights, gradients, and two optimizer-moment slots — SGD uses
// fewer, Adam-family exactly this; over-admitting on memory is the
// failure mode worth being conservative about), the stateful buffers
// (BatchNorm statistics), and 64 KiB of wire scratch per platform
// connection. An estimate, not an accounting: the budget exists to
// refuse obviously-unpayable admissions before they thrash the
// process, not to meter every allocation.
func EstimateSessionBytes(scfg *core.ServerConfig) int64 {
	if scfg.Back == nil {
		return 0
	}
	params := int64(nn.ParamCount(scfg.Back.Params()))
	var state int64
	for _, st := range nn.CollectState(scfg.Back) {
		state += int64(st.Size())
	}
	const f32 = 4
	b := 4*params*f32 + state*f32
	b += int64(scfg.Platforms) * 64 << 10
	return b
}

// OpenSession admits and starts one training session for the named
// tenant. scfg is a complete core.ServerConfig (back half, optimizer,
// round plan) except that the Manager owns two fields: Compute is set
// to the session's fair-scheduling gate, and an empty CheckpointDir
// inherits the tenant's. conns[k] talks to platform k, exactly as in
// core.Server.Serve; the session runs on its own goroutine and the
// returned Session reports completion through Wait.
//
// Admission is checked in a fixed order — manager closed, tenant
// exists, per-tenant session cap, process session cap, memory budget —
// so a rejection's cause is deterministic for any given state.
func (m *Manager) OpenSession(tenantName string, scfg core.ServerConfig, conns []transport.Conn) (*Session, error) {
	est := EstimateSessionBytes(&scfg)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	t, ok := m.tenants[tenantName]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenantName)
	}
	if t.cfg.MaxSessions > 0 && t.sessions >= t.cfg.MaxSessions {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q at %d sessions", ErrSessionLimit, tenantName, t.sessions)
	}
	if m.sessions >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: manager at %d sessions", ErrSessionLimit, m.sessions)
	}
	if m.cfg.MaxMemoryBytes > 0 && m.memory+est > m.cfg.MaxMemoryBytes {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %d + %d bytes exceeds budget %d",
			ErrMemoryBudget, m.memory, est, m.cfg.MaxMemoryBytes)
	}
	t.sessions++
	m.sessions++
	m.memory += est
	m.mu.Unlock()

	if scfg.CheckpointDir == "" {
		scfg.CheckpointDir = t.cfg.CheckpointDir
	}
	gate := m.sched.register("session:" + tenantName)
	scfg.Compute = gate
	srv, err := core.NewServer(scfg)
	if err != nil {
		m.sched.unregister(gate)
		m.releaseSession(t, est)
		return nil, err
	}
	sess := &Session{
		m:      m,
		tenant: t,
		gate:   gate,
		srv:    srv,
		bytes:  est,
		done:   make(chan struct{}),
	}
	go func() {
		err := srv.Serve(conns)
		m.sched.unregister(gate)
		m.releaseSession(t, est)
		sess.err = err
		close(sess.done)
	}()
	return sess, nil
}

// releaseSession returns a finished (or failed-to-start) session's
// admission to the budget.
func (m *Manager) releaseSession(t *tenant, est int64) {
	m.mu.Lock()
	t.sessions--
	m.sessions--
	m.memory -= est
	m.mu.Unlock()
}

// Stats is a point-in-time view of the Manager's admission state.
type Stats struct {
	Sessions    int   // live training sessions
	MemoryBytes int64 // admitted estimated bytes
}

// Stats reports the current admission state.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Sessions: m.sessions, MemoryBytes: m.memory}
}

// Close refuses further admissions. Live sessions keep running;
// callers that want them gone call Stop on each Session first.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}

// Session is one admitted training session.
type Session struct {
	m      *Manager
	tenant *tenant
	gate   *computeGate
	srv    *core.Server
	bytes  int64
	done   chan struct{}
	err    error
}

// Wait blocks until the session's server loop returns and reports its
// error.
func (s *Session) Wait() error {
	<-s.done
	return s.err
}

// Stop requests a graceful shutdown (see core.Server.Stop).
func (s *Session) Stop() { s.srv.Stop() }
