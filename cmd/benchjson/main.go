// Command benchjson converts `go test -bench` output on stdin into the
// BENCH_*.json format the repo commits as its performance baseline
// (see README.md, "Performance methodology"). Usage:
//
//	go test -bench . -benchmem ./internal/tensor/ | go run ./cmd/benchjson
//
// Lines that are not benchmark results are ignored, so the full test
// output can be piped through unmodified.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line. Custom metrics (GFLOPS, wire-bytes, …)
// land in Metrics keyed by their unit string.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the committed JSON document.
type File struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Notes      noteList `json:"notes,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// noteList encodes as a JSON array but decodes either an array or a
// bare string: the oldest committed baseline (BENCH_tensor.json)
// predates the repeatable -note flag and stores a single string.
type noteList []string

func (n *noteList) UnmarshalJSON(data []byte) error {
	var one string
	if err := json.Unmarshal(data, &one); err == nil {
		*n = noteList{one}
		return nil
	}
	var many []string
	if err := json.Unmarshal(data, &many); err != nil {
		return err
	}
	*n = noteList(many)
	return nil
}

// notesFlag collects repeated -note flags.
type notesFlag []string

func (n *notesFlag) String() string { return strings.Join(*n, "; ") }

func (n *notesFlag) Set(v string) error {
	*n = append(*n, v)
	return nil
}

func main() {
	var notes notesFlag
	flag.Var(&notes, "note", "free-form note recorded in the JSON header (repeatable); use it to pin the baseline a benchmark run is compared against")
	comparePath := flag.String("compare", "", "committed BENCH_*.json baseline to gate against; with this flag benchjson compares instead of converting, exiting 1 on regression")
	newPath := flag.String("new", "", "with -compare: read the new side from this BENCH_*.json file instead of parsing bench output on stdin")
	threshold := flag.Float64("threshold", 0.15, "with -compare: relative worsening tolerated per metric before the gate fails")
	skipNS := flag.Bool("skip-ns", false, "with -compare: ignore ns/op and gate on allocs/op only (use on CI runners with noisy clocks)")
	allocSlack := flag.Int64("alloc-slack", 2, "with -compare: absolute allocs/op grace on top of -threshold")
	inflate := flag.Float64("selfcheck-inflate", 1, "with -compare: multiply new-side values by this factor; CI uses 2 against the baseline itself to prove the gate trips")
	var gateMetrics notesFlag
	flag.Var(&gateMetrics, "metric", "with -compare: gate the named custom metric as higher-is-better (repeatable; e.g. -metric GFLOPS); unnamed metrics are reported but never gate")
	flag.Parse()

	if *comparePath != "" {
		os.Exit(runCompare(*comparePath, *newPath, compareOpts{
			threshold:   *threshold,
			skipNS:      *skipNS,
			allocSlack:  *allocSlack,
			inflate:     *inflate,
			gateMetrics: gateMetrics,
		}))
	}

	out, err := parseBenchOutput(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	out.Notes = noteList(notes)
	// Zero parsed results means the input was not `go test -bench`
	// output at all (or the bench run itself failed): fail loudly so CI
	// smoke jobs catch a broken pipeline instead of committing an empty
	// baseline.
	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines found on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBenchOutput scans `go test -bench` text into a File stamped with
// this process's toolchain and platform. The GOMAXPROCS stamp comes
// from the benchmark names, not from this process: `go test` ends a
// name with "-N" when the benchmark ran at GOMAXPROCS N != 1, and
// benchjson usually runs in a pipe under a different setting. The
// smallest value any line carries wins, so a sub-benchmark name that
// itself ends in "-<digits>" cannot inflate the stamp.
func parseBenchOutput(r io.Reader) (*File, error) {
	out := &File{
		Schema:    "medsplit-bench-v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if res, procs, ok := parseLine(sc.Text()); ok {
			out.Benchmarks = append(out.Benchmarks, res)
			if out.GOMAXPROCS == 0 || procs < out.GOMAXPROCS {
				out.GOMAXPROCS = procs
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// splitCPUSuffix splits the trailing "-<N>" GOMAXPROCS marker off a
// benchmark name and returns N, or 1 when the name has no marker (go
// test omits it at GOMAXPROCS 1). The bench may have run under any -cpu
// setting or on another machine, so any trailing digit run after a dash
// counts rather than this process's own GOMAXPROCS value.
func splitCPUSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name, 1
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name, 1
		}
	}
	procs, _ := strconv.Atoi(name[i+1:])
	return name[:i], max(procs, 1)
}

// parseLine decodes one "BenchmarkX-8  100  123 ns/op  45 B/op ..." line
// and returns the GOMAXPROCS its name carries. The value/unit pairs
// after the iteration count alternate, so the parser walks them two
// fields at a time.
func parseLine(line string) (Result, int, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, 0, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, 0, false
	}
	name, procs := splitCPUSuffix(fields[0])
	r := Result{
		Name:       name,
		Iterations: iters,
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, 0, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		case "MB/s":
			// Throughput from b.SetBytes; not tracked in the baseline.
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	if r.NsPerOp == 0 {
		return Result{}, 0, false
	}
	return r, procs, true
}
