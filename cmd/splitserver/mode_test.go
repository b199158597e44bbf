package main

import (
	"testing"

	"medsplit/internal/core"
)

// The scheduling flags map onto one round mode, the same way for a
// leader and a standby; a standby refuses every mode a promotion could
// not continue.
func TestRoundModeFlags(t *testing.T) {
	cases := []struct {
		name      string
		mut       func(*serverOpts)
		mode      core.RoundMode
		staleness int
		ok        bool
		standby   bool // standbyMode accepts it
	}{
		{"default", nil, core.RoundModeSequential, 0, true, true},
		{"concat", func(o *serverOpts) { o.concat = true }, core.RoundModeConcat, 0, true, false},
		{"stale 0", func(o *serverOpts) { o.stale = 0 }, core.RoundModeBoundedStaleness, 0, true, true},
		{"stale 3", func(o *serverOpts) { o.stale = 3 }, core.RoundModeBoundedStaleness, 3, true, false},
		{"splitfed", func(o *serverOpts) { o.splitfed = true; o.l1sync = 2 }, core.RoundModeSplitFed, 0, true, false},
		{"splitfed without l1sync", func(o *serverOpts) { o.splitfed = true }, 0, 0, false, false},
		{"concat and stale", func(o *serverOpts) { o.concat = true; o.stale = 1 }, 0, 0, false, false},
		{"concat and splitfed", func(o *serverOpts) { o.concat = true; o.splitfed = true; o.l1sync = 2 }, 0, 0, false, false},
		{"stale and splitfed", func(o *serverOpts) { o.stale = 0; o.splitfed = true; o.l1sync = 2 }, 0, 0, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := serverOpts{stale: -1} // the flag defaults
			if tc.mut != nil {
				tc.mut(&o)
			}
			mode, staleness, err := roundMode(o)
			if tc.ok != (err == nil) {
				t.Fatalf("roundMode err = %v, want ok %v", err, tc.ok)
			}
			if tc.ok && (mode != tc.mode || staleness != tc.staleness) {
				t.Fatalf("roundMode = %v K=%d, want %v K=%d", mode, staleness, tc.mode, tc.staleness)
			}
			if err := standbyMode(o); tc.standby != (err == nil) {
				t.Fatalf("standbyMode err = %v, want accepted %v", err, tc.standby)
			}
		})
	}
}
