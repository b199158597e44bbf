package main

import (
	"math"
	"sort"
	"time"

	"medsplit/internal/rng"
)

// dist summarises one timing distribution the way every report line
// prints it: sample count, quartiles, and the highest percentile that
// still has at least ten samples beyond it.
type dist struct {
	N             int     `json:"n"`
	Q1            float64 `json:"q1"`
	Median        float64 `json:"median"`
	Q3            float64 `json:"q3"`
	TailPercent   float64 `json:"tail_percent"`
	TailValue     float64 `json:"tail_value"`
	sortedSamples []float64
}

// tailCandidates are the percentiles a report may quote, highest first,
// in tenths of a percent (integers, so that 10000 samples at p99.9 have
// exactly ten beyond).
var tailCandidates = []int{999, 990, 950, 900, 750, 500}

// tailPercentile picks the highest candidate percentile with at least
// ten samples beyond it; with fewer than twenty samples it falls back
// to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n*(1000-p)/1000 >= 10 {
			return float64(p) / 10
		}
	}
	return 50
}

// percentile returns the p-th percentile (nearest rank on the sorted
// slice, the convention experiment.RunServeLoad already uses).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), sortedSamples: s}
	if len(s) == 0 {
		return d
	}
	d.Q1, d.Median, d.Q3 = percentile(s, 25), percentile(s, 50), percentile(s, 75)
	d.TailPercent = tailPercentile(len(s))
	d.TailValue = percentile(s, d.TailPercent)
	return d
}

func (d dist) at(p float64) float64 { return percentile(d.sortedSamples, p) }

func median(v []float64) float64 { return summarize(v).Median }

// windowRates splits the event stamps into `windows` windows of equal
// event count and returns each window's rate in events per second.
// stamps[0] is the start of the first window (an event boundary that is
// not itself counted); leftover events beyond windows×count are dropped
// from the tail. With fewer events than windows every event is its own
// window.
func windowRates(stamps []time.Duration, windows int) []float64 {
	events := len(stamps) - 1
	if events < windows {
		windows = events
	}
	if windows <= 0 {
		return nil
	}
	per := events / windows
	rates := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		span := stamps[(w+1)*per] - stamps[w*per]
		if span <= 0 {
			continue
		}
		rates = append(rates, float64(per)/span.Seconds())
	}
	return rates
}

// windowPercentiles splits the samples, in the order given, into
// `windows` windows of equal count and returns each window's p-th
// percentile. The reported figure is the median over the windows: a
// burst of outside interference that slows a few windows moves a
// whole-run percentile (the slow samples are exactly the ones a tail
// percentile picks) but not the median window, so this is the steadier
// estimate of what the program itself does. With fewer samples than
// windows there is one window.
func windowPercentiles(samples []float64, windows int, p float64) []float64 {
	per := 0
	if windows > 0 {
		per = len(samples) / windows
	}
	if per < 1 {
		return []float64{summarize(samples).at(p)}
	}
	each := make([]float64, windows)
	for w := range each {
		each[w] = summarize(samples[w*per : (w+1)*per]).at(p)
	}
	return each
}

// windowed collects the per-window figures of a run's measured
// sessions. A run measures several sessions one after the other, each
// set up afresh, and pools their windows: how a session's goroutines
// settle on the two cores differs from one session to the next and
// holds for the session's life, so the median over windows of several
// sessions is steadier than that over as many windows of one.
type windowed struct{ rates, p50 []float64 }

// add cuts one session's steady stamps (stamps[0] starts the first op)
// and op times into `windows` windows.
func (w *windowed) add(stamps []time.Duration, opMs []float64, windows int) {
	w.rates = append(w.rates, windowRates(stamps, windows)...)
	w.p50 = append(w.p50, windowPercentiles(opMs, windows, 50)...)
}

// intervalsMs turns consecutive stamps into per-event durations in ms.
func intervalsMs(stamps []time.Duration) []float64 {
	if len(stamps) < 2 {
		return nil
	}
	out := make([]float64, len(stamps)-1)
	for i := 1; i < len(stamps); i++ {
		out[i-1] = float64(stamps[i]-stamps[i-1]) / float64(time.Millisecond)
	}
	return out
}

// arrival is one scheduled open-loop request.
type arrival struct {
	due    time.Duration // offset from phase start
	tenant int
	conn   int
	input  int
}

// poissonSchedule draws a seeded open-loop arrival schedule: exponential
// gaps at `rate` per second until `length`, a hot/cold tenant split
// (hotShare of requests go to tenant 0), a uniform connection and a
// uniform input index. The same seed gives the same schedule.
func poissonSchedule(seed uint64, rate float64, length time.Duration, hotShare float64, conns, inputs int) []arrival {
	r := rng.New(seed)
	var out []arrival
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= length {
			return out
		}
		a := arrival{due: due, conn: r.Intn(conns), input: r.Intn(inputs)}
		if r.Float64() >= hotShare {
			a.tenant = 1
		}
		out = append(out, a)
	}
}

// movingMeanReach returns the first index i (0-based) at which the mean
// of v[i-width+1 .. i] is at or below threshold, or -1.
func movingMeanReach(v []float64, width int, threshold float64) int {
	sum := 0.0
	for i, x := range v {
		sum += x
		if i >= width {
			sum -= v[i-width]
		}
		if i >= width-1 && sum/float64(width) <= threshold {
			return i
		}
	}
	return -1
}
