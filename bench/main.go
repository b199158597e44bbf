// Command bench is the repository's benchmark: seven workloads over the
// split-learning round and the split-inference request, each run once
// untraced for the end-to-end metrics and once traced for the per-layer
// metrics. README.md in this directory describes every workload and
// metric; BENCHMARK.json at the repository root is the driver's view of
// the same lists.
//
// Driver contract (one run, one JSON result as the last line of stdout):
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Without --trace the program is its own driver: it runs every workload
// (or the one named) both ways, -sets times over consecutive seeds, each
// run in a child process of its own, and prints every metric by name
// with unit, sample count and quartiles.
//
//	bench [-workload <name>] [-seed n] [-sets n] [-out results.json] [-trace-out spans.jsonl]
//	bench -compare a.json b.json
//	bench -list
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		wname    = flag.String("workload", "", "run one workload (default: all)")
		seed     = flag.Uint64("seed", 1, "seed for data, weights, samplers, link jitter and arrival schedules")
		seconds  = flag.Float64("seconds", runSeconds, "seconds one run measures")
		trace    = flag.Int("trace", -1, "0: one untraced run, 1: one traced run, each ending in the driver's JSON line; unset: full report")
		tmp      = flag.String("tmp", ".bench_build/tmp", "scratch directory for WALs, created if missing; keep it inside the checkout")
		traceOut = flag.String("trace-out", "", "append the traced runs' spans to this file as JSON lines")
		detail   = flag.Bool("detail", false, "with --trace: also print the full result (distributions, failed checks) as a JSON line before the last")
		sets     = flag.Int("sets", 1, "report mode: runs per workload and mode, on seeds seed..seed+sets-1")
		out      = flag.String("out", "", "report mode: write every run's result to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		list     = flag.Bool("list", false, "print every workload and metric with unit, direction and bound")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as this program defines it")
	)
	flag.Parse()
	switch {
	case *list:
		printList()
		return 0
	case *manifest:
		os.Stdout.Write(manifestJSON())
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	var selected []*workload
	if *wname == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := workloadByName(*wname); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *wname)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}

	if *trace < 0 {
		return report(selected, *seed, *seconds, *sets, *tmp, *out, *traceOut)
	}
	if len(selected) != 1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace takes 0 or 1 and needs --workload")
		return 2
	}
	runtime.GOMAXPROCS(benchProcs())
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res := runWorkload(selected[0], runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, tmp: *tmp, traceOut: *traceOut, scale: 1})
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	if *detail {
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Println(string(line))
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	return 0
}

// benchProcs is the GOMAXPROCS every run uses: the box's cores, at most
// two. The wall-clock workloads are sized for two (two platforms, two
// connections, two compute slots).
func benchProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func runWorkload(w *workload, o runOpts) *runResult {
	res := func() *runResult {
		if w.Train != nil {
			return runTrainWorkload(w, o)
		}
		return runServeWorkload(w, o)
	}()
	res.GOMAXPROCS = runtime.GOMAXPROCS(0)
	return res
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	RunSeconds float64      `json:"run_seconds"`
	Runs       []*runResult `json:"runs"`
}

// report runs every selected workload untraced and traced, sets times,
// each run as a child process in the driver's own calling convention so
// that the numbers (peak RSS above all) are the ones the driver sees.
func report(selected []*workload, seed uint64, seconds float64, sets int, tmp, out, traceOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	file := resultFile{GOMAXPROCS: benchProcs(), RunSeconds: seconds}
	fmt.Printf("GOMAXPROCS=%d  run_seconds=%g  sets=%d  seeds=%d..%d\n", file.GOMAXPROCS, seconds, sets, seed, seed+uint64(sets)-1)
	status := 0
	for _, w := range selected {
		for _, traced := range []int{0, 1} {
			var runs []*runResult
			for s := 0; s < sets; s++ {
				args := []string{"--workload", w.Name, "--seed", strconv.FormatUint(seed+uint64(s), 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced),
					"-detail", "-tmp", tmp}
				if traceOut != "" {
					args = append(args, "-trace-out", traceOut)
				}
				cmd := exec.Command(exe, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
					return 2
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				if len(lines) < 2 {
					fmt.Fprintf(os.Stderr, "bench: %s: the run printed no result\n", w.Name)
					return 2
				}
				res := &runResult{}
				if err := json.Unmarshal(lines[len(lines)-2], res); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
					return 2
				}
				runs = append(runs, res)
				file.Runs = append(file.Runs, res)
				if !res.Correct || res.Failed > 0 {
					status = 1
				}
			}
			printRuns(w, traced == 1, runs)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return status
}

// printRuns prints one workload's runs in one mode: every metric by
// name with its unit and, over the sets, median and quartiles; then the
// first run's timing distributions.
func printRuns(w *workload, traced bool, runs []*runResult) {
	defs, mode := endToEnd, "untraced, end-to-end"
	if traced {
		defs, mode = perLayer, "traced, per-layer"
	}
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	fmt.Printf("\n== %s  (%s)  ops_attempted=%d ops_failed=%d\n", w.Name, mode, attempted, failed)
	for _, r := range runs {
		for _, p := range r.Problems {
			fmt.Printf("   CHECK FAILED (seed %d): %s\n", r.Seed, p)
		}
	}
	fmt.Printf("   %-28s %-8s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range defs {
		var vals []float64
		for _, r := range runs {
			vals = append(vals, r.Metrics[d.Name].Value)
		}
		s := summarize(vals)
		if traced && s.Median == 0 && s.Q3 == 0 {
			continue // the layer does no work on this workload
		}
		fmt.Printf("   %-28s %-8s %14.6g %14.6g %14.6g %4d\n", d.Name, d.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	names := make([]string, 0, len(runs[0].Dists))
	for name := range runs[0].Dists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := runs[0].Dists[name]
		fmt.Printf("   dist %-22s n=%-6d q1=%-10.5g median=%-10.5g q3=%-10.5g p%g=%.5g\n", name, d.N, d.Q1, d.Median, d.Q3, d.TailPercent, d.TailValue)
	}
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-20s %s\n", w.Name, w.Why)
	}
	fmt.Println("\nend-to-end metrics (--trace 0; every workload reports every one):")
	for _, d := range endToEnd {
		fmt.Printf("  %-28s %-8s %-6s bound %-6g %s\n", d.Name, d.Unit, d.Better, d.Bound, d.Doc)
	}
	fmt.Println("\nper-layer metrics (--trace 1; no bound; 0 where the layer does no work on the workload):")
	for _, d := range perLayer {
		fmt.Printf("  %-28s %-8s %-6s moves: %s\n      %s\n", d.Name, d.Unit, d.Better, d.Moves, d.Doc)
	}
}

// manifestJSON renders BENCHMARK.json from the lists in spec.go.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(data, '\n')
}
