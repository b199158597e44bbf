package main

import (
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/serve"
	"medsplit/internal/transport"
)

// serveOpts configures -serve mode: one process multiplexing split
// inference for many tenants (see internal/serve).
type serveOpts struct {
	addr         string
	tenants      string
	arch         string
	classes      int
	width        int
	batchMax     int
	flushEvery   time.Duration
	computeSlots int
	queueCap     int
	ioTimeout    time.Duration
}

// parseTenants decodes the -tenants spec: comma-separated
// "name:seed[:checkpoint-dir[:precision]]" entries, where precision is
// f32 (default), f16 or int8 and selects the numeric format the
// tenant's inference traffic is served at (see
// serve.TenantConfig.InferPrecision). Every tenant shares the
// process-wide -arch/-classes/-width; the seed determines its initial
// weights and the optional directory is scanned for newer checkpoint
// generations on demand.
func parseTenants(spec string, o serveOpts) ([]serve.TenantConfig, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-serve requires -tenants (e.g. \"alpha:1,beta:2:ckpt/beta\")")
	}
	var out []serve.TenantConfig
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.SplitN(strings.TrimSpace(entry), ":", 4)
		if len(parts) < 2 || parts[0] == "" {
			return nil, fmt.Errorf("tenant entry %q: want name:seed[:checkpoint-dir[:precision]]", entry)
		}
		seed, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tenant entry %q: bad seed: %w", entry, err)
		}
		dir, precision := "", ""
		if len(parts) >= 3 {
			dir = parts[2]
		}
		if len(parts) == 4 {
			precision = parts[3]
		}
		name := parts[0]
		out = append(out, serve.TenantConfig{
			Name: name,
			BuildBack: func() (*nn.Sequential, error) {
				m, err := buildTenantModel(o, seed)
				if err != nil {
					return nil, err
				}
				_, back, err := models.Split(m.Net, m.DefaultCut)
				return back, err
			},
			CheckpointDir:  dir,
			InferPrecision: precision,
		})
	}
	return out, nil
}

// buildTenantModel builds a tenant's full model from the shared
// architecture flags and its own seed — the same derivation
// cmd/splitinfer uses for the front half, so the cut halves agree.
func buildTenantModel(o serveOpts, seed uint64) (*models.Model, error) {
	m, _, err := buildBack(serverOpts{arch: o.arch, classes: o.classes, width: o.width, seed: seed})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// runServe listens for inference clients and serves every tenant from
// one process. SIGINT/SIGTERM drains: stop accepting, flush in-flight
// batches, exit.
func runServe(o serveOpts) error {
	tenants, err := parseTenants(o.tenants, o)
	if err != nil {
		return err
	}
	m, err := serve.NewManager(serve.Config{Tenants: tenants, ComputeSlots: o.computeSlots})
	if err != nil {
		return err
	}
	defer m.Close()
	is, err := serve.NewInferenceServer(m, serve.InferConfig{
		BatchMax:   o.batchMax,
		FlushEvery: o.flushEvery,
		QueueCap:   o.queueCap,
	})
	if err != nil {
		return err
	}

	// An -io-timeout bounds how long a dead or wedged client can hold
	// this process's reader/writer; idle-but-healthy clients must send
	// something (even a health probe) within the window.
	l, err := transport.ListenOpts(o.addr, transport.TCPOptions{
		ReadTimeout:  o.ioTimeout,
		WriteTimeout: o.ioTimeout,
	})
	if err != nil {
		return err
	}
	names := make([]string, len(tenants))
	for i, t := range tenants {
		names[i] = t.Name
	}
	fmt.Printf("splitserver: serving split inference on %s for tenants %s (batch<=%d, flush %v, %d compute slot(s))\n",
		l.Addr(), strings.Join(names, ","), o.batchMax, o.flushEvery, o.computeSlots)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		fmt.Println("splitserver: signal received; draining inference connections")
		l.Close()
	}()

	var wg sync.WaitGroup
	for {
		c, aerr := l.Accept()
		if aerr != nil {
			break // listener closed by the signal handler
		}
		wg.Add(1)
		go func(c transport.Conn) {
			defer wg.Done()
			defer c.Close()
			if herr := is.HandleConn(c); herr != nil {
				fmt.Fprintln(os.Stderr, "splitserver: connection ended:", herr)
			}
		}(c)
	}
	wg.Wait()
	is.Close()
	st := is.Stats()
	fmt.Printf("splitserver: served %d request(s) in %d batch(es), %d rejected (%d shed, %d expired)\n",
		st.Requests, st.Batches, st.Rejected, st.Shed, st.Expired)
	return nil
}
