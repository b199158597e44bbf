package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one traced interval on one party's goroutine. Times are
// nanoseconds since the party's epoch. parent indexes the enclosing
// span of the same party (-1 at top level); id carries the round or
// request the span belongs to; tag carries the wire message type for
// transport spans; aux carries a byte count where one applies (frame
// bytes on transport spans, raw tensor bytes on codec spans) and aux2
// the encoded bytes on codec spans.
type span struct {
	name       string
	start, end int64
	parent     int32
	id         int64
	tag        uint8
	aux        int64
	aux2       int64
}

// party records the spans of one protocol party. A party belongs to one
// goroutine (the sequential and window schedulers drive each party from
// a single goroutine), so recording needs no lock. The untraced run has
// no parties: its wrappers are left out, or (tapConn) skip recording.
type party struct {
	name  string
	epoch time.Time
	spans []span
	stack []int32
}

func newParty(name string, epoch time.Time) *party {
	return &party{name: name, epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open span and returns its
// index for end.
func (p *party) begin(name string) int32 {
	parent := int32(-1)
	if n := len(p.stack); n > 0 {
		parent = p.stack[n-1]
	}
	i := int32(len(p.spans))
	p.spans = append(p.spans, span{name: name, start: int64(time.Since(p.epoch)), parent: parent, id: -1})
	p.stack = append(p.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (p *party) end(i int32) *span {
	s := &p.spans[i]
	s.end = int64(time.Since(p.epoch))
	p.stack = p.stack[:len(p.stack)-1]
	return s
}

// selfTimes returns each span's self time: its duration minus the part
// its direct children cover. Children of one party never overlap (one
// goroutine), so covered time is the sum of child durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] += spans[i].end - spans[i].start
		if p := spans[i].parent; p >= 0 {
			self[p] -= spans[i].end - spans[i].start
		}
	}
	return self
}

// roundProfile is the per-round breakdown of one party's spans between
// two boundaries.
type roundProfile struct {
	rounds   int
	wallNs   int64            // sum of round wall times
	topNs    int64            // time covered by top-level spans
	selfNs   map[string]int64 // self time by span name
	totalNs  map[string]int64 // inclusive time by span name
	count    map[string]int64 // span count by name
	auxBytes map[string]int64 // aux sum by name
	aux2     map[string]int64 // aux2 sum by name
}

// profileRounds attributes a party's spans to the rounds delimited by
// bounds (bounds[i] is the end of round i and the start of round i+1,
// in ns since the party epoch) and sums them over rounds [from, to).
// A top-level span belongs to the round in which it starts; nested
// spans follow their top-level ancestor.
func profileRounds(spans []span, bounds []int64, from, to int) roundProfile {
	rp := roundProfile{
		selfNs:   map[string]int64{},
		totalNs:  map[string]int64{},
		count:    map[string]int64{},
		auxBytes: map[string]int64{},
		aux2:     map[string]int64{},
	}
	if from < 1 {
		from = 1 // round 0 has no start boundary
	}
	if to > len(bounds) {
		to = len(bounds)
	}
	if to <= from {
		return rp
	}
	lo, hi := bounds[from-1], bounds[to-1]
	rp.rounds = to - from
	rp.wallNs = hi - lo
	self := selfTimes(spans)
	in := make([]bool, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.parent >= 0 {
			in[i] = in[s.parent] // parents precede children
		} else {
			in[i] = s.start >= lo && s.start < hi
			if in[i] {
				rp.topNs += s.end - s.start
			}
		}
		if !in[i] {
			continue
		}
		rp.selfNs[s.name] += self[i]
		rp.totalNs[s.name] += s.end - s.start
		rp.count[s.name]++
		rp.auxBytes[s.name] += s.aux
		rp.aux2[s.name] += s.aux2
	}
	return rp
}

// coverage is the share of round wall time that top-level spans cover.
func (rp roundProfile) coverage() float64 {
	if rp.wallNs <= 0 {
		return 0
	}
	return float64(rp.topNs) / float64(rp.wallNs)
}

// perRoundMs converts a nanosecond total into milliseconds per round.
func (rp roundProfile) perRoundMs(ns int64) float64 {
	if rp.rounds == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(rp.rounds)
}

// addGapsBefore appends, for every top-level span called name, a span
// called gap that runs from the end of the preceding top-level span to
// the start of the named one. It gives a name to work the program does
// between two seams when no seam brackets the work itself.
func addGapsBefore(spans []span, name, gap string) []span {
	prevEnd := int64(-1)
	n := len(spans)
	for i := 0; i < n; i++ {
		s := spans[i]
		if s.parent >= 0 {
			continue
		}
		if s.name == name && prevEnd >= 0 && s.start > prevEnd {
			spans = append(spans, span{name: gap, start: prevEnd, end: s.start, parent: -1, id: s.id})
		}
		prevEnd = s.end
	}
	return spans
}

// boundsOf returns the end times of the spans for which pick is true,
// in order of occurrence.
func boundsOf(spans []span, pick func(*span) bool) []int64 {
	var out []int64
	for i := range spans {
		if pick(&spans[i]) {
			out = append(out, spans[i].end)
		}
	}
	return out
}

// spanRecord is the JSON-lines form of a span in the trace file.
type spanRecord struct {
	Party  string `json:"party"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Index  int    `json:"index"`
	Parent int32  `json:"parent"`
	ID     int64  `json:"id"`
	Tag    uint8  `json:"tag,omitempty"`
	Aux    int64  `json:"aux,omitempty"`
	Aux2   int64  `json:"aux2,omitempty"`
}

// writeTrace appends every party's spans to path as JSON lines.
func writeTrace(path, workload string, parties []*party) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, p := range parties {
		if p == nil {
			continue
		}
		for i, s := range p.spans {
			rec := spanRecord{Party: workload + "/" + p.name, Name: s.name, Start: s.start, End: s.end,
				Index: i, Parent: s.parent, ID: s.id, Tag: s.tag, Aux: s.aux, Aux2: s.aux2}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return fmt.Errorf("trace file: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
