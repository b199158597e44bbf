package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive"
// method) — the figure the driver holds each bound against.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quantile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := quantile(2)
	if med == 0 {
		return 0
	}
	spread := (quantile(3) - quantile(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultFile{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// untracedValues collects one metric's values over a file's untraced
// runs of one workload.
func (f *resultFile) untracedValues(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// verdict compares b against a for one metric: "differ" when b's median
// is worse than a's by more than the bound, "unresolved" when either
// side's own spread is wider than the bound (so the comparison cannot
// tell), "agree" otherwise. worse is the signed share by which b is
// worse (negative: better).
func verdict(d metricDef, a, b []float64) (medA, medB, worse, spread float64, v string) {
	medA, medB = median(a), median(b)
	if medA != 0 {
		worse = (medB - medA) / medA
		if d.Better == "higher" {
			worse = -worse
		}
	}
	spread = quartileSpread(a)
	if s := quartileSpread(b); s > spread {
		spread = s
	}
	switch {
	case spread > d.Bound:
		v = "unresolved"
	case worse > d.Bound:
		v = "differ"
	default:
		v = "agree"
	}
	return
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the difference, the bound and the verdict. It returns 1 when any pair
// differs, 0 otherwise.
func compareFiles(pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResults(pathB); err == nil {
			return compareResults(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareResults(a, b *resultFile) int {
	if a.GOMAXPROCS != b.GOMAXPROCS || a.RunSeconds != b.RunSeconds {
		fmt.Printf("note: the files were measured differently (GOMAXPROCS %d vs %d, run_seconds %g vs %g)\n",
			a.GOMAXPROCS, b.GOMAXPROCS, a.RunSeconds, b.RunSeconds)
	}
	fmt.Printf("%-20s %-18s %13s %13s %9s %7s %7s  %s\n", "workload", "metric", "median a", "median b", "b worse", "spread", "bound", "verdict")
	status := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.untracedValues(w.Name, d.Name), b.untracedValues(w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB, worse, spread, v := verdict(d, va, vb)
			fmt.Printf("%-20s %-18s %13.6g %13.6g %+8.2f%% %6.2f%% %6.2f%%  %s\n",
				w.Name, d.Name, medA, medB, 100*worse, 100*spread, 100*d.Bound, v)
			if v == "differ" {
				status = 1
			}
		}
	}
	return status
}
