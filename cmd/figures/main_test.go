package main

import "testing"

// The quick figures regenerate without error: the live protocol trace,
// the analytic paper-scale Fig. 4, the cut sweep and both schemes over
// the simulated hospital WAN.
func TestQuickFiguresRun(t *testing.T) {
	for _, fig := range []string{"trace", "4-analytic", "cut-sweep", "wan"} {
		t.Run(fig, func(t *testing.T) {
			if err := run(fig, true, false, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := run("no-such-figure", true, false, 1); err == nil {
		t.Fatal("unknown figure accepted")
	}
}
