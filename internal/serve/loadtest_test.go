// Load tests for the serving tier, in an external test package so they
// can drive internal/experiment's harness (experiment imports serve,
// so an internal test file could not import it back).
package serve_test

import (
	"testing"
	"time"

	"medsplit/internal/experiment"
)

// A small tenant matrix end to end: every request answered, correct
// logits shapes (RunServeLoad checks them), sane stats.
func TestServeLoadSmall(t *testing.T) {
	res, err := experiment.RunServeLoad(experiment.ServeLoadConfig{
		Tenants:             2,
		Platforms:           6,
		RequestsPerPlatform: 4,
		Seed:                11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * 4; res.InferRequests != want {
		t.Fatalf("completed %d requests, want %d", res.InferRequests, want)
	}
	if res.InferBatches <= 0 || res.InferBatches > int64(res.InferRequests) {
		t.Fatalf("%d batches for %d requests", res.InferBatches, res.InferRequests)
	}
	if res.InferP50 <= 0 || res.InferP99 < res.InferP50 {
		t.Fatalf("latency percentiles p50=%v p99=%v", res.InferP50, res.InferP99)
	}
	if res.InferReqPerSec <= 0 {
		t.Fatalf("req/s %v", res.InferReqPerSec)
	}
}

// The scale-out scenario from the issue: 100 platforms × 4 tenants
// over the simulated geo-WAN. Skipped under -short; the nightly soak
// runs it under -race.
func TestServeLoad100Platforms4Tenants(t *testing.T) {
	if testing.Short() {
		t.Skip("100-platform load test skipped in -short mode")
	}
	res, err := experiment.RunServeLoad(experiment.ServeLoadConfig{
		Tenants:             4,
		Platforms:           100,
		RequestsPerPlatform: 3,
		RequestRows:         2,
		BatchMax:            16,
		FlushEvery:          2 * time.Millisecond,
		ComputeSlots:        4,
		SimJitter:           0.1,
		Seed:                13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 * 3; res.InferRequests != want {
		t.Fatalf("completed %d requests, want %d", res.InferRequests, want)
	}
	// The batcher is work-conserving: at this load the compute slots are
	// mostly idle, so most requests run alone the moment they arrive.
	// How much fuses depends on arrival timing; the fusion rule itself
	// is pinned by TestBusySlotsStillBatch.
	if res.InferBatches <= 0 || res.InferBatches > int64(res.InferRequests) {
		t.Fatalf("%d batches for %d requests", res.InferBatches, res.InferRequests)
	}
	t.Logf("100×4 load: p50=%v p99=%v req/s=%.0f batches=%d simWAN=%v",
		res.InferP50, res.InferP99, res.InferReqPerSec, res.InferBatches, res.SimElapsed)
}
