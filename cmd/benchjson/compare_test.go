package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchFile(names []string, ns []float64, allocs []int64) *File {
	f := &File{Schema: "medsplit-bench-v1", GoVersion: "go1.24.0", GOMAXPROCS: 1}
	for i, n := range names {
		f.Benchmarks = append(f.Benchmarks, Result{Name: n, Iterations: 1, NsPerOp: ns[i], AllocsPerOp: allocs[i]})
	}
	return f
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	old := benchFile([]string{"BenchmarkA", "BenchmarkB"}, []float64{1000, 2000}, []int64{10, 20})
	cur := benchFile([]string{"BenchmarkA", "BenchmarkB"}, []float64{1100, 1900}, []int64{11, 20})
	report, regs, err := compareFiles(old, cur, compareOpts{threshold: 0.15, allocSlack: 2}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regressions %v on a within-threshold run", regs)
	}
	if len(report) == 0 {
		t.Fatal("empty report")
	}
}

func TestCompareFlagsNsRegression(t *testing.T) {
	old := benchFile([]string{"BenchmarkA"}, []float64{1000}, []int64{10})
	cur := benchFile([]string{"BenchmarkA"}, []float64{1200}, []int64{10})
	_, regs, err := compareFiles(old, cur, compareOpts{threshold: 0.15, allocSlack: 2}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].metric != "ns/op" {
		t.Fatalf("regs = %v, want one ns/op regression", regs)
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	old := benchFile([]string{"BenchmarkA"}, []float64{1000}, []int64{10})
	cur := benchFile([]string{"BenchmarkA"}, []float64{1000}, []int64{15})
	_, regs, err := compareFiles(old, cur, compareOpts{threshold: 0.15, allocSlack: 2}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].metric != "allocs/op" {
		t.Fatalf("regs = %v, want one allocs/op regression", regs)
	}
}

// The absolute slack mutes relative blowups on tiny baselines: 3 -> 4
// allocs is +33% but only one allocation.
func TestCompareAllocSlackAbsorbsTinyBaselines(t *testing.T) {
	old := benchFile([]string{"BenchmarkA"}, []float64{1000}, []int64{3})
	cur := benchFile([]string{"BenchmarkA"}, []float64{1000}, []int64{4})
	_, regs, err := compareFiles(old, cur, compareOpts{threshold: 0.15, allocSlack: 2}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regs = %v, want slack to absorb +1 alloc", regs)
	}
}

func TestCompareSkipNS(t *testing.T) {
	old := benchFile([]string{"BenchmarkA"}, []float64{1000}, []int64{10})
	cur := benchFile([]string{"BenchmarkA"}, []float64{5000}, []int64{10})
	_, regs, err := compareFiles(old, cur, compareOpts{threshold: 0.15, skipNS: true, allocSlack: 2}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regs = %v, want -skip-ns to ignore the 5x slowdown", regs)
	}
}

// The CI self-check: comparing a baseline against itself inflated 2x
// must fail, proving the gate is live.
func TestCompareSelfCheckInflateTrips(t *testing.T) {
	old := benchFile([]string{"BenchmarkA", "BenchmarkB"}, []float64{1000, 2000}, []int64{10, 20})
	_, regs, err := compareFiles(old, old, compareOpts{threshold: 0.15, allocSlack: 2, inflate: 2}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) < 2 {
		t.Fatalf("regs = %v, want 2x inflation to trip every benchmark", regs)
	}
}

func TestCompareNoOverlapErrors(t *testing.T) {
	old := benchFile([]string{"BenchmarkA"}, []float64{1000}, []int64{10})
	cur := benchFile([]string{"BenchmarkZ"}, []float64{1000}, []int64{10})
	if _, _, err := compareFiles(old, cur, compareOpts{threshold: 0.15}, os.Stderr); err == nil {
		t.Fatal("disjoint benchmark sets compared without error")
	}
}

// Every committed baseline must load: the gate is only as good as its
// inputs, and BENCH_tensor.json carries the legacy string-typed notes.
func TestCommittedBaselinesLoad(t *testing.T) {
	for _, name := range []string{"BENCH_tensor.json", "BENCH_wire.json", "BENCH_simnet.json", "BENCH_wal.json"} {
		f, err := readBenchFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(f.Benchmarks) == 0 {
			t.Fatalf("%s: empty", name)
		}
	}
}

func TestNoteListDecodesStringAndArray(t *testing.T) {
	var f File
	if err := json.Unmarshal([]byte(`{"notes": "one"}`), &f); err != nil || len(f.Notes) != 1 {
		t.Fatalf("string notes: %v %v", f.Notes, err)
	}
	if err := json.Unmarshal([]byte(`{"notes": ["a", "b"]}`), &f); err != nil || len(f.Notes) != 2 {
		t.Fatalf("array notes: %v %v", f.Notes, err)
	}
}

func TestReadNewResultsParsesBenchOutput(t *testing.T) {
	in := strings.NewReader("goos: linux\nBenchmarkA-4   100   1234 ns/op   56 B/op   7 allocs/op\nPASS\n")
	f, err := readNewResults("", in)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 1 || f.Benchmarks[0].Name != "BenchmarkA" || f.Benchmarks[0].AllocsPerOp != 7 {
		t.Fatalf("parsed %+v", f.Benchmarks)
	}
}

// withMetric attaches a custom metric value to the named benchmark.
func withMetric(f *File, name, key string, v float64) *File {
	for i := range f.Benchmarks {
		if f.Benchmarks[i].Name == name {
			if f.Benchmarks[i].Metrics == nil {
				f.Benchmarks[i].Metrics = map[string]float64{}
			}
			f.Benchmarks[i].Metrics[key] = v
		}
	}
	return f
}

// Custom metrics always show up in the report, gated or not.
func TestCompareSurfacesCustomMetrics(t *testing.T) {
	old := withMetric(benchFile([]string{"BenchmarkGemm"}, []float64{1000}, []int64{0}), "BenchmarkGemm", "GFLOPS", 7.3)
	cur := withMetric(benchFile([]string{"BenchmarkGemm"}, []float64{900}, []int64{0}), "BenchmarkGemm", "GFLOPS", 24.3)
	report, regs, err := compareFiles(old, cur, compareOpts{threshold: 0.15}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("ungated metric regressed: %v", regs)
	}
	found := false
	for _, line := range report {
		if strings.Contains(line, "GFLOPS") && strings.Contains(line, "7.3") && strings.Contains(line, "24.3") {
			found = true
		}
	}
	if !found {
		t.Fatalf("GFLOPS delta not surfaced in report:\n%s", strings.Join(report, "\n"))
	}
}

// A gated metric fails the gate when it drops past the threshold
// (higher is better), and passes when it improves.
func TestCompareGatedMetricFlagsDrop(t *testing.T) {
	old := withMetric(benchFile([]string{"BenchmarkGemm"}, []float64{1000}, []int64{0}), "BenchmarkGemm", "GFLOPS", 24.0)
	drop := withMetric(benchFile([]string{"BenchmarkGemm"}, []float64{1000}, []int64{0}), "BenchmarkGemm", "GFLOPS", 12.0)
	_, regs, err := compareFiles(old, drop, compareOpts{threshold: 0.15, gateMetrics: []string{"GFLOPS"}}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].metric != "GFLOPS" {
		t.Fatalf("regs = %v, want one GFLOPS regression", regs)
	}

	up := withMetric(benchFile([]string{"BenchmarkGemm"}, []float64{1000}, []int64{0}), "BenchmarkGemm", "GFLOPS", 30.0)
	_, regs, err = compareFiles(old, up, compareOpts{threshold: 0.15, gateMetrics: []string{"GFLOPS"}}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}
}

// The selfcheck inflate factor must trip a gated higher-is-better
// metric too (it divides instead of multiplies).
func TestCompareGatedMetricSelfCheckTrips(t *testing.T) {
	old := withMetric(benchFile([]string{"BenchmarkGemm"}, []float64{1000}, []int64{0}), "BenchmarkGemm", "GFLOPS", 24.0)
	same := withMetric(benchFile([]string{"BenchmarkGemm"}, []float64{1000}, []int64{0}), "BenchmarkGemm", "GFLOPS", 24.0)
	_, regs, err := compareFiles(old, same, compareOpts{threshold: 0.15, inflate: 2, skipNS: true, gateMetrics: []string{"GFLOPS"}}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("selfcheck inflate did not trip the metric gate: %v", regs)
	}
}

// The GOMAXPROCS stamp comes from the benchmark names' "-N" suffix, not
// from benchjson's own process: `GOMAXPROCS=1 go test … | benchjson`
// must stamp 1 whatever the pipe's reader runs at.
func TestParseStampsGOMAXPROCSFromNames(t *testing.T) {
	cases := []struct {
		name, in string
		want     int
	}{
		{"suffixed", "BenchmarkA-4   100   1234 ns/op\nBenchmarkB/n-64-4   10   99 ns/op\n", 4},
		{"unsuffixed", "goos: linux\nBenchmarkA   100   1234 ns/op\nBenchmarkB/n-64   10   99 ns/op\nPASS\n", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parseBenchOutput(strings.NewReader(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			if f.GOMAXPROCS != tc.want {
				t.Fatalf("stamped gomaxprocs=%d, want %d", f.GOMAXPROCS, tc.want)
			}
			if len(f.Benchmarks) != 2 || f.Benchmarks[0].Name != "BenchmarkA" {
				t.Fatalf("parsed %+v", f.Benchmarks)
			}
		})
	}
}
