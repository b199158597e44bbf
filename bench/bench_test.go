package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"medsplit/internal/compress"
	"medsplit/internal/experiment"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/tensor"
	"medsplit/internal/wire"
)

func TestWindowRatesMedian(t *testing.T) {
	// 100 events: the first 50 one per ms, the last 50 one per 2 ms.
	stamps := []time.Duration{0}
	for i := 0; i < 50; i++ {
		stamps = append(stamps, stamps[len(stamps)-1]+time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		stamps = append(stamps, stamps[len(stamps)-1]+2*time.Millisecond)
	}
	rates := windowRates(stamps, 10)
	if len(rates) != 10 {
		t.Fatalf("got %d windows, want 10", len(rates))
	}
	for i, r := range rates {
		want := 1000.0
		if i >= 5 {
			want = 500
		}
		if math.Abs(r-want) > 1e-9 {
			t.Errorf("window %d: rate %v, want %v", i, r, want)
		}
	}
	if m := median(rates); m != 500 {
		t.Errorf("median of windows %v, want 500 (nearest rank: the lower middle of an even count)", m)
	}
	if got := windowRates(stamps[:5], 10); len(got) != 4 {
		t.Errorf("4 events in 10 windows gave %v, want one rate per event", got)
	}
	if got := windowRates(stamps[:1], 10); got != nil {
		t.Errorf("no events gave %v, want none", got)
	}
	// Leftover events beyond windows×count are dropped from the tail.
	if got := windowRates(stamps[:28], 5); len(got) != 5 {
		t.Errorf("27 events in 5 windows gave %d rates", len(got))
	}
}

func TestWindowPercentileIgnoresABurst(t *testing.T) {
	// 200 samples of 1 ms with a burst of 30 samples at 9 ms: the burst
	// is 15% of the run, so it owns the whole-run p95, but it only
	// touches 3 of 20 windows.
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = 1
		if i >= 100 && i < 130 {
			samples[i] = 9
		}
	}
	if got := summarize(samples).at(95); got != 9 {
		t.Fatalf("whole-run p95 %v, want 9", got)
	}
	if got := median(windowPercentiles(samples, 20, 95)); got != 1 {
		t.Errorf("window-median p95 %v, want 1", got)
	}
	if got := windowPercentiles(samples[:7], 20, 50); len(got) != 1 || got[0] != 1 {
		t.Errorf("fewer samples than windows: %v, want the plain median 1 alone", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("n=%d: p%v, want p%v", tc.n, got, tc.want)
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	d := summarize(samples)
	if d.TailPercent != 99 || d.TailValue != 990 || d.Median != 500 || d.Q1 != 250 || d.Q3 != 750 {
		t.Errorf("summary of 1..1000: %+v", d)
	}
}

// A hand-built trace: two rounds on one party.
//
//	round 1 [0,100):  recv [0,30)  compute [30,90) { fwd [40,60) { layer [45,55) }  step [70,80) }
//	round 2 [100,200): recv [100,110)  send [150,160)
func handTrace() ([]span, []int64) {
	spans := []span{
		{name: "recv", start: 0, end: 30, parent: -1},
		{name: "compute", start: 30, end: 90, parent: -1},
		{name: "fwd", start: 40, end: 60, parent: 1},
		{name: "layer", start: 45, end: 55, parent: 2},
		{name: "step", start: 70, end: 80, parent: 1},
		{name: "recv", start: 100, end: 110, parent: -1},
		{name: "send", start: 150, end: 160, parent: -1},
	}
	return spans, []int64{0, 100, 200}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	spans, bounds := handTrace()
	self := selfTimes(spans)
	if want := []int64{30, 30, 10, 10, 10, 10, 10}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	rp := profileRounds(spans, bounds, 1, 3)
	if rp.rounds != 2 || rp.wallNs != 200 {
		t.Fatalf("profile covers %d rounds / %d ns, want 2 / 200", rp.rounds, rp.wallNs)
	}
	if rp.topNs != 30+60+10+10 {
		t.Errorf("top-level time %d, want 110", rp.topNs)
	}
	if got := rp.coverage(); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("coverage %v, want 0.55", got)
	}
	if rp.selfNs["compute"] != 30 || rp.totalNs["compute"] != 60 || rp.totalNs["recv"] != 40 || rp.count["recv"] != 2 {
		t.Errorf("per-name sums wrong: self %v total %v count %v", rp.selfNs, rp.totalNs, rp.count)
	}
	// Only the second round: nested spans of round 1 stay out.
	rp = profileRounds(spans, bounds, 2, 3)
	if rp.rounds != 1 || rp.topNs != 20 || rp.totalNs["fwd"] != 0 {
		t.Errorf("round 2 alone: %+v", rp)
	}
}

func TestAddGapsBefore(t *testing.T) {
	spans, _ := handTrace()
	spans = addGapsBefore(spans, "send", "gap")
	last := spans[len(spans)-1]
	if last.name != "gap" || last.start != 110 || last.end != 150 || last.parent != -1 {
		t.Errorf("gap span %+v, want [110,150) at top level", last)
	}
	if n := len(addGapsBefore(spans, "recv", "gap2")) - len(spans); n != 1 {
		// The first recv has no predecessor; the second follows compute.
		t.Errorf("%d gaps before recv spans, want 1", n)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 500, 2*time.Second, 0.75, 2, 32)
	b := poissonSchedule(7, 500, 2*time.Second, 0.75, 2, 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, 500, 2*time.Second, 0.75, 2, 32); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 850 || n > 1150 {
		t.Errorf("%d arrivals in 2 s at 500/s", n)
	}
	hot := 0
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
		if x.due >= 2*time.Second || x.conn < 0 || x.conn > 1 || x.input < 0 || x.input >= 32 {
			t.Fatalf("arrival %d out of range: %+v", i, x)
		}
		if x.tenant == 0 {
			hot++
		}
	}
	if share := float64(hot) / float64(len(a)); share < 0.68 || share > 0.82 {
		t.Errorf("hot tenant share %.2f, want about 0.75", share)
	}
}

func TestMovingMeanReach(t *testing.T) {
	v := []float64{5, 4, 3, 2, 1, 0.5, 0.4, 0.3}
	if got := movingMeanReach(v, 3, 1.2); got != 5 {
		t.Errorf("reached at %d, want 5 (mean of 2,1,0.5)", got)
	}
	if got := movingMeanReach(v, 3, 0.1); got != -1 {
		t.Errorf("reached at %d, want never", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := quartileSpread([]float64{3, 1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of three %v, want 1", got)
	}
	if got := quartileSpread([]float64{4}); got != 0 {
		t.Errorf("spread of one value %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_per_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m} }
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(105), "agree"},
		{lower, steady(100), steady(115), "differ"},
		{lower, steady(100), steady(50), "agree"}, // better is never a difference
		{higher, steady(100), steady(85), "differ"},
		{higher, steady(100), steady(120), "agree"},
		{lower, []float64{60, 100, 140, 80, 120}, steady(130), "unresolved"},
	} {
		if _, _, _, _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v vs %v: %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(ops float64) *resultFile {
		f := &resultFile{GOMAXPROCS: 2, RunSeconds: 10}
		for seed := uint64(1); seed <= 3; seed++ {
			f.Runs = append(f.Runs, &runResult{Workload: "train_mlp_tcp", Seed: seed, Correct: true,
				Metrics: map[string]metricValue{"ops_per_s": {Value: ops, Unit: "1/s"}, "op_p50_ms": {Value: 1000 / ops, Unit: "ms"}}})
		}
		return f
	}
	if got := compareResults(mk(1000), mk(990)); got != 0 {
		t.Errorf("1%% slower: exit %d, want 0", got)
	}
	if got := compareResults(mk(1000), mk(700)); got != 1 {
		t.Errorf("30%% slower: exit %d, want 1", got)
	}
}

// plainCodec has only the allocating methods.
type plainCodec struct{ wire.RawCodec }

func (plainCodec) EncodeTensorsInto() {} // shadow: no longer a ReusableCodec
func (plainCodec) DecodeTensorsInto() {}

// plainOpt has neither optional optimizer interface.
type plainOpt struct{}

func (plainOpt) Step([]*nn.Param) {}
func (plainOpt) Name() string     { return "plain" }

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	p := newParty("test", time.Now())
	int8Codec, err := compress.ByName("int8")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []wire.Codec{wire.RawCodec{}, int8Codec, plainCodec{}} {
		_, innerFast := c.(wire.ReusableCodec)
		_, wrappedFast := traceCodec(c, p).(wire.ReusableCodec)
		if innerFast != wrappedFast {
			t.Errorf("codec %T: reusable %v, wrapped %v", c, innerFast, wrappedFast)
		}
	}
	if _, ok := wire.Codec(plainCodec{}).(wire.ReusableCodec); ok {
		t.Fatal("plainCodec should not be reusable; the test is not testing the fallback")
	}
	for _, o := range []nn.Optimizer{&nn.SGD{LR: 0.1}, &nn.Momentum{LR: 0.1, Mu: 0.9}, &nn.Adam{LR: 0.1}, plainOpt{}} {
		w := traceOptimizer(o, p)
		_, innerLR := o.(nn.LRAdjustable)
		_, wrappedLR := w.(nn.LRAdjustable)
		_, innerState := o.(nn.StatefulOptimizer)
		_, wrappedState := w.(nn.StatefulOptimizer)
		if innerLR != wrappedLR || innerState != wrappedState {
			t.Errorf("optimizer %T: LR %v/%v, stateful %v/%v", o, innerLR, wrappedLR, innerState, wrappedState)
		}
	}
	sgd := &nn.SGD{LR: 0.1}
	if !nn.ApplySchedule(traceOptimizer(sgd, p), nn.ConstantLR(0.5), 0) || sgd.LR != 0.5 {
		t.Errorf("a schedule through the wrapper left LR at %v", sgd.LR)
	}
}

func TestRoundTripThroughTracedCodec(t *testing.T) {
	p := newParty("test", time.Now())
	c := traceCodec(wire.RawCodec{}, p)
	x := tensor.New(2, 3)
	for i := range x.Data() {
		x.Data()[i] = float32(i) - 2.5
	}
	buf := wire.EncodeInto(c, nil, x)
	if !bytes.Equal(buf, wire.EncodeTensors(x)) {
		t.Fatal("the wrapped codec encodes differently")
	}
	ts, err := wire.DecodeInto(c, nil, buf)
	if err != nil || len(ts) != 1 || !reflect.DeepEqual(ts[0].Data(), x.Data()) {
		t.Fatalf("decode through the wrapper: %v %v", ts, err)
	}
	if len(p.spans) != 2 || p.spans[0].aux != 24 || p.spans[0].aux2 != int64(len(buf)) {
		t.Errorf("codec spans %+v", p.spans)
	}
}

func TestTraceHalfKeepsLayerAnswers(t *testing.T) {
	p := newParty("test", time.Now())
	for _, arch := range []experiment.Arch{experiment.ArchMLP, experiment.ArchVGG} {
		m, err := experiment.BuildModel(experiment.Config{Arch: arch, Classes: 10, Width: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		front, back, err := models.Split(m.Net, m.DefaultCut)
		if err != nil {
			t.Fatal(err)
		}
		for _, half := range []*nn.Sequential{front, back} {
			w, wraps, err := traceHalf(half, p, "fwd", "bwd")
			if err != nil {
				t.Fatalf("%s %s: %v", arch, half.Name(), err)
			}
			if nn.ReplaySafe(w) != nn.ReplaySafe(half) || len(nn.CollectState(w)) != len(nn.CollectState(half)) {
				t.Errorf("%s %s: wrapping changed the ReplaySafe/CollectState answers", arch, half.Name())
			}
			if !reflect.DeepEqual(w.Params(), half.Params()) {
				t.Errorf("%s %s: wrapping changed the parameter list", arch, half.Name())
			}
			if len(wraps) != len(half.Layers()) {
				t.Errorf("%s %s: %d child wrappers for %d layers", arch, half.Name(), len(wraps), len(half.Layers()))
			}
		}
	}
	// Stateful and composite layers must be refused, not hidden.
	m, err := experiment.BuildModel(experiment.Config{Arch: experiment.ArchResNet, Classes: 10, Width: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := traceHalf(m.Net, p, "fwd", "bwd"); err == nil {
		t.Error("traceHalf wrapped a ResNet (BatchNorm, Residual) without complaint")
	}
}

func TestLayerGemmShapes(t *testing.T) {
	m, err := experiment.BuildModel(experiment.Config{Arch: experiment.ArchVGG, Classes: 10, Width: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, c := largestShapes(m.Net, tensor.New(2, 3, 32, 32))
	// conv2: 2·16·16 output pixels × (8·3·3) × 16 channels is the
	// largest product of VGG-lite w8; conv1 has the largest input.
	if want := (gemmShape{M: 2 * 16 * 16, K: 72, N: 16}); g != want {
		t.Errorf("largest product %+v, want %+v", g, want)
	}
	if want := (convShape{N: 2, C: 3, H: 32, W: 32, Kh: 3, Kw: 3}); c != want {
		t.Errorf("largest convolution input %+v, want %+v", c, want)
	}
}

func TestManifestMatchesSpec(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the lists in spec.go; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better=%q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}
}

// TestSmokeAllWorkloads drives every workload end to end at a tiny
// size, untraced and traced, so the wiring is exercised by `go test`.
func TestSmokeAllWorkloads(t *testing.T) {
	tmp := t.TempDir()
	start := time.Now()
	for i := range workloads {
		w := &workloads[i]
		if w.Serve != nil && w.Serve.Rate > 150 {
			// A gentle rate: the wiring is under test here, not the
			// server's capacity (which a -race build cuts tenfold).
			slow := *w
			slow.Serve = &serveDef{Rate: 150}
			w = &slow
		}
		for _, traced := range []bool{false, true} {
			if traced && (w.Name == "train_mlp_tcp" || w.Train == nil && w.Name != "serve_tcp_open.r2") {
				// train_mlp_tcp_repl's traced run wraps everything
				// train_mlp_tcp's does and more; one traced serving
				// phase covers the serving wrappers.
				continue
			}
			o := runOpts{seed: 5, seconds: 0.12, traced: traced, tmp: tmp, scale: 0.03}
			t0 := time.Now()
			res := runWorkload(w, o)
			t.Logf("%s traced=%v: %v", w.Name, traced, time.Since(t0))
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d of %d: %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Problems)
				continue
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", w.Name, traced, d.Name, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, d.Name, v.Value)
				}
			}
			if traced && w.Train != nil && w.Train.Staleness == 0 {
				if c := res.Metrics["core.trace_coverage"].Value; c < 0.8 || c > 1 {
					t.Errorf("%s: trace coverage %v", w.Name, c)
				}
			}
		}
	}
	t.Logf("all workloads in %v", time.Since(start))
}
