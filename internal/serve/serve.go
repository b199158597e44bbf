// Package serve is the split-inference tier: one process answers
// MsgInferRequest traffic for many tenants with the back half of each
// tenant's model. Training stays with core.Server, one session per
// process (cmd/splitserver); a tenant's model comes from the
// snapshots such a session writes.
//
// A Manager holds the tenants and the compute budget they share. It
// keeps per-tenant model and checkpoint state isolated (a separate
// payload buffer pool, so one tenant's responses never recycle through
// another's buffers) and shares back-half compute fairly —
// round-robin over a fixed slot budget — across every tenant in the
// process. InferenceServer (infer.go) batches each tenant's requests
// dynamically and serves them from a warm model cache keyed by
// checkpoint generation (cache.go).
package serve

import (
	"errors"
	"fmt"
	"sync/atomic"

	"medsplit/internal/nn"
	"medsplit/internal/wire"
)

// Serving errors. The inference path ships these to clients as
// structured error payloads (wire.EncodeServeError), so their
// classification — not just their text — is part of the protocol
// surface: see errCodeOf for the error → wire.ErrCode mapping.
var (
	ErrUnknownTenant      = errors.New("serve: unknown tenant")
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
	// (the snapshot is restored into a fresh model). Required when the
	// tenant is served inference traffic.
	BuildBack func() (*nn.Sequential, error)
	// CheckpointDir is where the tenant's training run writes server
	// snapshots (splitserver -checkpoint-dir). The inference cache
	// watches it: the latest generation (snapshot NextRound) found
	// there is what requests are served from. Empty means the tenant
	// serves BuildBack's initial weights as generation 0.
	CheckpointDir string
	// InferPrecision selects the numeric format the tenant's inference
	// traffic is served at: "" or "f32" (default) serves the f32 back
	// half bit-identically to prior releases; "f16" stores Dense
	// weights in half precision with f32 accumulation (~2⁻¹¹ relative
	// weight rounding); "int8" runs Dense layers through symmetric
	// int8 weights and dynamically quantized activations with int32
	// accumulation (logits track f32 to ~1e-2 absolute on unit-scale
	// activations — see nn.QuantizedInference). Reduced precision
	// applies only to serving; training always runs f32.
	InferPrecision string
}

// Config configures a Manager.
type Config struct {
	// Tenants is the static tenant set. Required, non-empty.
	Tenants []TenantConfig
	// ComputeSlots bounds how many back-half forwards run concurrently
	// across all tenants (the round-robin slot budget). It is also how
	// many compute lanes one tenant may run, so a single busy tenant
	// can fill every slot. Defaults to 1, which serializes all
	// server-side math — the strictest fairness.
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
		switch t.InferPrecision {
		case "", "f32", "f16", "int8":
		default:
			return fmt.Errorf("%w: tenant %q infer precision %q (want f32, f16 or int8)", ErrConfig, t.Name, t.InferPrecision)
		}
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
// inference cache, and the isolated buffer pool the serving path
// encodes responses into. Pool isolation is the memory-safety half of
// tenancy — a tenant's encoded responses only ever recycle through its
// own pool, so a sizing bug or a leaked buffer stays contained to the
// tenant that caused it.
type tenant struct {
	cfg     TenantConfig
	cache   *modelCache
	buffers *wire.BufferPool
}

// Manager holds one process's tenants and the compute scheduler their
// inference batchers draw slots from.
type Manager struct {
	cfg     Config
	sched   *computeScheduler
	tenants map[string]*tenant // fixed at NewManager
	closed  atomic.Bool
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
			buffers: &wire.BufferPool{},
		}
		t.cache = &modelCache{name: tc.Name, build: tc.BuildBack, dir: tc.CheckpointDir, precision: tc.InferPrecision}
		m.tenants[tc.Name] = t
	}
	return m, nil
}

// Close marks the Manager closed, so NewInferenceServer refuses it
// from then on. An InferenceServer already built on it keeps serving
// until its own Close drains it.
func (m *Manager) Close() { m.closed.Store(true) }
