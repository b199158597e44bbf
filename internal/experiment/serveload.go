package experiment

import (
	"errors"
	"fmt"
	"sort"
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

// ServeLoadConfig describes one multi-tenant serving load run: a
// tenant × platform matrix of inference clients driving a single
// serving process over the simulated WAN.
type ServeLoadConfig struct {
	// Tenants is how many tenant models the server multiplexes
	// (default 2). Platform k belongs to tenant k mod Tenants.
	Tenants int
	// Platforms is the number of clinics issuing requests (default 4).
	Platforms int
	// RequestsPerPlatform is each client's request count (default 8).
	RequestsPerPlatform int
	// RequestRows is the rows (samples) per request (default 2).
	RequestRows int
	// BatchMax / FlushEvery configure the server's dynamic batcher
	// (see serve.InferConfig; defaults 8 rows / 2ms).
	BatchMax   int
	FlushEvery time.Duration
	// ComputeSlots is the server's shared compute budget (default 2).
	ComputeSlots int
	// Arch / Classes / Width pick the per-tenant model (defaults
	// ArchMLP / 10 / 8; every tenant gets the same architecture at
	// different seeded weights).
	Arch    Arch
	Classes int
	Width   int
	// Seed makes the run — topology, weights, inputs — reproducible.
	Seed uint64
	// SimJitter adds seeded per-message jitter to the simulated WAN.
	SimJitter float64
	// InferPrecision is applied to every tenant's serving view
	// (serve.TenantConfig.InferPrecision): "" or "f32" serves the
	// bit-identical default, "f16"/"int8" the reduced-precision paths.
	InferPrecision string
}

func (c ServeLoadConfig) withDefaults() ServeLoadConfig {
	if c.Tenants == 0 {
		c.Tenants = 2
	}
	if c.Platforms == 0 {
		c.Platforms = 4
	}
	if c.RequestsPerPlatform == 0 {
		c.RequestsPerPlatform = 8
	}
	if c.RequestRows == 0 {
		c.RequestRows = 2
	}
	if c.BatchMax == 0 {
		c.BatchMax = 8
	}
	if c.FlushEvery == 0 {
		c.FlushEvery = 2 * time.Millisecond
	}
	if c.ComputeSlots == 0 {
		c.ComputeSlots = 2
	}
	if c.Arch == "" {
		c.Arch = ArchMLP
	}
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// tenantModelConfig is the deterministic model recipe for one tenant:
// same architecture across tenants, distinct seeded weights. Clients
// and the server build from the same recipe, so platform fronts match
// the served back half exactly — the property split inference depends
// on.
func (c ServeLoadConfig) tenantModelConfig(tenantIdx int) Config {
	return Config{
		Arch:    c.Arch,
		Classes: c.Classes,
		Width:   c.Width,
		Seed:    c.Seed + 101*uint64(tenantIdx+1),
	}
}

// RunServeLoad drives a multi-tenant serving process with
// cfg.Platforms concurrent clients over the simulated geo-WAN and
// reports client-observed latency percentiles and throughput. Every
// response is checked for the expected logits shape, so the run
// doubles as an end-to-end correctness pass over the serving tier.
func RunServeLoad(cfg ServeLoadConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Tenants > cfg.Platforms {
		return nil, fmt.Errorf("experiment: %d tenants need at least as many platforms, have %d", cfg.Tenants, cfg.Platforms)
	}
	topo, regions := geonet.SyntheticClinics(cfg.Platforms, cfg.Seed)
	wan, pairs, err := simnet.FromTopology(topo, regions, simnet.Options{
		Seed:   cfg.Seed + 0x5E21E,
		Jitter: cfg.SimJitter,
	})
	if err != nil {
		return nil, err
	}

	tenants := make([]serve.TenantConfig, cfg.Tenants)
	for i := range tenants {
		mcfg := cfg.tenantModelConfig(i)
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
			InferPrecision: cfg.InferPrecision,
		}
	}
	mgr, err := serve.NewManager(serve.Config{Tenants: tenants, ComputeSlots: cfg.ComputeSlots})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	is, err := serve.NewInferenceServer(mgr, serve.InferConfig{
		BatchMax:   cfg.BatchMax,
		FlushEvery: cfg.FlushEvery,
	})
	if err != nil {
		return nil, err
	}
	defer is.Close()

	var serverWG sync.WaitGroup
	latencies := make([][]time.Duration, cfg.Platforms)
	errs := make([]error, cfg.Platforms)
	var clientWG sync.WaitGroup
	start := time.Now()
	for k := 0; k < cfg.Platforms; k++ {
		serverWG.Add(1)
		go func(k int) {
			defer serverWG.Done()
			_ = is.HandleConn(pairs[k].Server)
		}(k)
		clientWG.Add(1)
		go func(k int) {
			defer clientWG.Done()
			errs[k] = runServeClient(cfg, k, pairs[k].Platform, &latencies[k])
		}(k)
	}
	clientWG.Wait()
	elapsed := time.Since(start)
	serverWG.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := &Result{
		Scheme:        "serve (split inference)",
		InferRequests: len(all),
		InferBatches:  is.Stats().Batches,
		SimElapsed:    wan.Elapsed(),
	}
	if len(all) > 0 {
		res.InferP50 = all[(len(all)-1)*50/100]
		res.InferP99 = all[(len(all)-1)*99/100]
	}
	if elapsed > 0 {
		res.InferReqPerSec = float64(len(all)) / elapsed.Seconds()
	}
	return res, nil
}

// runServeClient is one platform's load loop: build the tenant's front
// half, issue the configured requests with deterministic inputs, check
// every response shape, record client-observed latency.
func runServeClient(cfg ServeLoadConfig, k int, conn transport.Conn, out *[]time.Duration) error {
	tenantIdx := k % cfg.Tenants
	mcfg := cfg.tenantModelConfig(tenantIdx)
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
	r := rng.New(cfg.Seed + 0xC11E47 + uint64(k))
	shape := append([]int{cfg.RequestRows}, m.InputShape...)
	x := tensor.New(shape...)
	for i := 0; i < cfg.RequestsPerPlatform; i++ {
		r.NormFloat32s(x.Data())
		t0 := time.Now()
		y, err := client.Infer(x)
		lat := time.Since(t0)
		if err != nil {
			return fmt.Errorf("experiment: platform %d request %d: %w", k, i, err)
		}
		if y.Dim(0) != cfg.RequestRows || y.Dim(1) != cfg.Classes {
			return fmt.Errorf("experiment: platform %d: logits shape %v, want [%d %d]",
				k, y.Shape(), cfg.RequestRows, cfg.Classes)
		}
		*out = append(*out, lat)
	}
	return nil
}
