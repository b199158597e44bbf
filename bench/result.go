package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// metricValue is one reported number, in the shape the contract's
// result line wants.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOpts are the inputs of one run of one workload.
type runOpts struct {
	seed     uint64
	seconds  float64
	traced   bool
	tmp      string // scratch directory for WALs, inside the checkout
	traceOut string // JSON-lines span file, traced runs only; "" = none
	// scale < 1 shrinks pilots and minimum sizes for the smoke test.
	scale float64
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Traced     bool                   `json:"traced"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	// Dists holds the timing distributions behind the metrics, for the
	// human report (median, quartiles, n, best-supported tail).
	Dists map[string]dist `json:"dists,omitempty"`
	// Problems lists every failed correctness check.
	Problems []string `json:"problems,omitempty"`
}

func newResult(w *workload, o runOpts) *runResult {
	return &runResult{
		Workload: w.Name, Seed: o.seed, Traced: o.traced, Correct: true,
		Metrics: map[string]metricValue{}, Dists: map[string]dist{},
	}
}

// problem records a failed check; the run's operations count as failed.
func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// fill sets every metric of defs, taking values from vals and 0 for the
// rest (and for a ratio whose base was 0), so a run always reports the
// complete flat list and the result always marshals.
func (r *runResult) fill(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
}

// finish settles the failed count: a failed check fails every op.
func (r *runResult) finish() *runResult {
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	if !r.Correct {
		r.Failed = r.Attempted
	}
	return r
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
