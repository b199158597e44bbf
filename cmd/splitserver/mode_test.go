package main

import (
	"testing"

	"medsplit/internal/core"
)

// The scheduling flags map onto one round mode and its staleness cap,
// the same way for a leader and a standby. Whether the mode accepts the
// other flags is decided once, by core.NewServer; a standby refuses
// every schedule a promotion could not continue.
func TestRoundModeFlags(t *testing.T) {
	cases := []struct {
		name      string
		mut       func(*serverOpts)
		mode      core.RoundMode
		staleness int
		ok        bool // the leader's server config is accepted
		standby   bool // standbyMode accepts it
	}{
		{"default", nil, core.RoundModeSequential, 0, true, true},
		{"concat", func(o *serverOpts) { o.mode = "concat" }, core.RoundModeConcat, 0, true, false},
		{"stale 0", func(o *serverOpts) { o.stale = 0 }, core.RoundModeSequential, 0, true, true},
		{"stale 3", func(o *serverOpts) { o.stale = 3 }, core.RoundModeSequential, 3, true, false},
		// The splitfed preset is a cap at the L1-sync period; the name is
		// not a mode any more.
		{"splitfed", func(o *serverOpts) { o.stale = 2; o.l1sync = 2 }, core.RoundModeSequential, 2, true, false},
		{"splitfed without l1sync", func(o *serverOpts) { o.mode = "splitfed" }, 0, 0, false, false},
		{"concat and stale", func(o *serverOpts) { o.mode = "concat"; o.stale = 1 }, 0, 0, false, false},
		// -mode takes one name; a list of two is not a mode.
		{"concat and splitfed", func(o *serverOpts) { o.mode = "concat,splitfed"; o.l1sync = 2 }, 0, 0, false, false},
		{"stale and splitfed", func(o *serverOpts) { o.mode = "splitfed"; o.stale = 1; o.l1sync = 2 }, 0, 0, false, false},
		{"stale without the mode", func(o *serverOpts) { o.stale = 2 }, core.RoundModeSequential, 2, true, false},
		// K=0 never pauses, so it accepts checkpoints and a BatchNorm
		// back half; K=1 pauses exchanges and refuses both.
		{"stale 0 with checkpoints", func(o *serverOpts) {
			o.ckptDir = t.TempDir()
			o.ckptEvery = 2
		}, core.RoundModeSequential, 0, true, true},
		{"stale 1 with checkpoints", func(o *serverOpts) {
			o.stale = 1
			o.ckptDir = t.TempDir()
		}, 0, 0, false, false},
		{"resnet-lite stale 0", func(o *serverOpts) { o.arch = "resnet-lite" }, core.RoundModeSequential, 0, true, true},
		{"resnet-lite stale 1", func(o *serverOpts) {
			o.arch = "resnet-lite"
			o.stale = 1
		}, 0, 0, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The flag defaults, on the smallest model.
			o := serverOpts{
				platforms: 2, rounds: 4, arch: "mlp", classes: 10, width: 8,
				lr: 0.05, seed: 1, mode: "sequential", evalEvery: 10, codec: "raw",
			}
			if tc.mut != nil {
				tc.mut(&o)
			}
			cfg, _, err := serverConfig(o)
			if tc.ok && err == nil && (cfg.Mode != tc.mode || cfg.Staleness != tc.staleness) {
				t.Fatalf("serverConfig = %v K=%d, want %v K=%d", cfg.Mode, cfg.Staleness, tc.mode, tc.staleness)
			}
			if err == nil {
				_, err = core.NewServer(cfg)
			}
			if tc.ok != (err == nil) {
				t.Fatalf("server config err = %v, want ok %v", err, tc.ok)
			}
			if err := standbyMode(o); tc.standby != (err == nil) {
				t.Fatalf("standbyMode err = %v, want accepted %v", err, tc.standby)
			}
		})
	}
}
