// Command splitinfer is the client side of the serving tier: it runs a
// tenant's front half locally, ships cut activations to a splitserver
// running in -serve mode, and reports per-request latency percentiles.
//
// Client and server must agree on -arch, -classes, -width and the
// tenant's seed — both sides derive the full model from the seed and
// split it at the same cut, so the halves compose into exactly the
// model a single process would run.
//
//	splitserver -serve -addr :7900 -tenants "alpha:1"
//	splitinfer  -addr 127.0.0.1:7900 -tenant alpha -seed 1 -requests 100
//
// The client is overload- and failure-aware: -timeout bounds each
// request, -retries retries retryable rejections and timeouts with
// jittered exponential backoff, -hedge-after launches a duplicate
// attempt when a response is slow, and -addrs rotates across replica
// addresses on redial. A request that exhausts its budget is counted
// and reported, not fatal — the run continues to the next request.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"medsplit/internal/experiment"
	"medsplit/internal/models"
	"medsplit/internal/rng"
	"medsplit/internal/serve"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7900", "splitserver -serve address")
		addrs    = flag.String("addrs", "", "comma-separated replica addresses; redials rotate across them (overrides -addr)")
		tenant   = flag.String("tenant", "", "tenant name to request (required)")
		id       = flag.Uint("id", 1, "client id echoed in request frames")
		arch     = flag.String("arch", "vgg-lite", "model: mlp, vgg-lite, resnet-lite")
		classes  = flag.Int("classes", 10, "label count")
		width    = flag.Int("width", 8, "model width")
		seed     = flag.Uint64("seed", 1, "tenant model seed (must match the server's -tenants entry)")
		gen      = flag.Uint("generation", 0, "pin requests to this checkpoint generation (0 = serve whatever is warm)")
		requests = flag.Int("requests", 16, "number of inference requests to send")
		rows     = flag.Int("rows", 1, "rows per request")
		dataSeed = flag.Uint64("data-seed", 7, "seed for the synthetic request data")

		timeout    = flag.Duration("timeout", 0, "per-request deadline, enforced locally and shipped to the server (0 = none)")
		retries    = flag.Int("retries", 1, "attempts per request; >1 retries retryable errors with jittered backoff")
		backoff    = flag.Duration("backoff", time.Millisecond, "base backoff between attempts (doubles per retry, jittered)")
		hedgeAfter = flag.Duration("hedge-after", 0, "launch a duplicate attempt after this long without a response (0 = off)")
		retrySeed  = flag.Uint64("retry-seed", 1, "seed for the backoff jitter (deterministic retry schedules)")
		ioTimeout  = flag.Duration("io-timeout", 0, "read/write deadline per socket call (0 = none)")
	)
	flag.Parse()
	cfg := inferOpts{
		addrs: splitAddrs(*addrs, *addr), tenant: *tenant, id: uint32(*id),
		arch: *arch, classes: *classes, width: *width, seed: *seed,
		gen: uint32(*gen), requests: *requests, rows: *rows, dataSeed: *dataSeed,
		timeout: *timeout, retries: *retries, backoff: *backoff,
		hedgeAfter: *hedgeAfter, retrySeed: *retrySeed, ioTimeout: *ioTimeout,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "splitinfer:", err)
		os.Exit(1)
	}
}

type inferOpts struct {
	addrs          []string
	tenant         string
	id             uint32
	arch           string
	classes, width int
	seed           uint64
	gen            uint32
	requests, rows int
	dataSeed       uint64

	timeout    time.Duration
	retries    int
	backoff    time.Duration
	hedgeAfter time.Duration
	retrySeed  uint64
	ioTimeout  time.Duration
}

// splitAddrs resolves the target list: -addrs wins when set, else the
// single -addr.
func splitAddrs(list, single string) []string {
	if strings.TrimSpace(list) == "" {
		return []string{single}
	}
	var out []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func run(o inferOpts) error {
	if o.tenant == "" {
		return fmt.Errorf("-tenant is required")
	}
	if o.requests <= 0 || o.rows <= 0 {
		return fmt.Errorf("-requests and -rows must be positive")
	}
	if len(o.addrs) == 0 {
		return fmt.Errorf("no server address")
	}
	m, err := experiment.BuildModel(experiment.Config{
		Arch: experiment.Arch(o.arch), Classes: o.classes, Width: o.width, Seed: o.seed,
	})
	if err != nil {
		return err
	}
	front, _, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		return err
	}
	tcpOpts := transport.TCPOptions{ReadTimeout: o.ioTimeout, WriteTimeout: o.ioTimeout}
	conn, err := transport.DialOpts(o.addrs[0], tcpOpts)
	if err != nil {
		return err
	}
	client := serve.NewClient(conn, front, o.tenant, o.id)
	defer client.Close()
	if o.gen != 0 {
		client.SetGeneration(o.gen)
	}
	if o.timeout > 0 || o.retries > 1 || o.hedgeAfter > 0 {
		client.SetPolicy(serve.RetryPolicy{
			Timeout:     o.timeout,
			MaxAttempts: o.retries,
			Backoff:     o.backoff,
			HedgeAfter:  o.hedgeAfter,
			Seed:        o.retrySeed,
		})
	}
	// Failover rotation: each redial tries the next address in the
	// list, wrapping around, so a dead replica is skipped after one
	// attempt rather than pinning the client forever.
	next := 1
	client.SetRedial(func() (transport.Conn, error) {
		a := o.addrs[next%len(o.addrs)]
		next++
		c, derr := transport.DialOpts(a, tcpOpts)
		if derr != nil {
			return nil, derr
		}
		fmt.Printf("splitinfer: failed over to %s\n", a)
		return c, nil
	})

	shape := append([]int{o.rows}, m.InputShape...)
	x := tensor.New(shape...)
	r := rng.New(o.dataSeed)
	data := x.Data()

	latencies := make([]time.Duration, 0, o.requests)
	errCounts := map[string]int{}
	failed := 0
	var lastLogits *tensor.Tensor
	start := time.Now()
	for i := 0; i < o.requests; i++ {
		r.NormFloat32s(data)
		t0 := time.Now()
		y, ierr := client.Infer(x)
		if ierr != nil {
			// Per-request failures are part of the report, not fatal:
			// an overloaded or flaky server must not abort the run.
			failed++
			errCounts[errLabel(ierr)]++
			fmt.Fprintf(os.Stderr, "splitinfer: request %d failed: %v\n", i+1, ierr)
			continue
		}
		latencies = append(latencies, time.Since(t0))
		lastLogits = y
	}
	elapsed := time.Since(start)

	st := client.Stats()
	fmt.Printf("splitinfer: %s/%s: %d/%d requests ok (%d failed) x %d rows, req/s=%.1f\n",
		o.tenant, m.Name, len(latencies), o.requests, failed, o.rows,
		float64(o.requests)/elapsed.Seconds())
	fmt.Printf("splitinfer: attempts=%d retries=%d hedges=%d redials=%d timeouts=%d rejected-remote=%d\n",
		st.Attempts, st.Retries, st.Hedges, st.Redials, st.Timeouts, st.Remote)
	if len(errCounts) > 0 {
		keys := make([]string, 0, len(errCounts))
		for k := range errCounts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("splitinfer: errors: %s x%d\n", k, errCounts[k])
		}
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		p := func(q int) time.Duration { return latencies[(len(latencies)-1)*q/100] }
		fmt.Printf("splitinfer: p50=%v p99=%v\n", p(50), p(99))
	}
	if lastLogits != nil {
		fmt.Printf("splitinfer: last logits argmax per row: %v\n", argmaxRows(lastLogits))
	}
	if failed == o.requests {
		return fmt.Errorf("all %d requests failed", o.requests)
	}
	return nil
}

// errLabel buckets a request error for the end-of-run tally: remote
// rejections by their wire error code, everything else by failure kind.
func errLabel(err error) string {
	var re *serve.RemoteError
	if errors.As(err, &re) {
		return re.Code.String()
	}
	if errors.Is(err, serve.ErrAttemptTimeout) {
		return "timeout"
	}
	return "transport"
}

// argmaxRows reports the predicted class per row of a logits tensor —
// a quick sanity signal that the halves composed into a real model.
func argmaxRows(logits *tensor.Tensor) []int {
	rows, cols := logits.Dim(0), logits.Dim(1)
	data := logits.Data()
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best := 0
		for c := 1; c < cols; c++ {
			if data[r*cols+c] > data[r*cols+best] {
				best = c
			}
		}
		out[r] = best
	}
	return out
}
