package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Offsets are relative to the tracer's start; Parent is the
// enclosing span's ID (0 for a root). Allocs and Bytes are the heap
// allocations made between start and end, children included.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Allocs uint64        `json:"allocs"`
	Bytes  uint64        `json:"bytes"`
}

// tracer keeps spans in memory for one goroutine's nested calls and writes
// them out once at the end. A nil *tracer records nothing, so the untraced
// path runs the same code with no clock or allocation reads.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // indices into spans of the enclosing spans
	counts map[string]float64
	ms     runtime.MemStats
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0), Allocs: t.ms.Mallocs, Bytes: t.ms.TotalAlloc,
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	end := time.Since(t.t0)
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[i]
	s.End = end
	s.Allocs = t.ms.Mallocs - s.Allocs
	s.Bytes = t.ms.TotalAlloc - s.Bytes
	t.open = t.open[:len(t.open)-1]
}

// count adds v to a named counter recorded at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// layerTotals is a layer's summed self cost over its spans.
type layerTotals struct {
	Calls  int
	Self   time.Duration
	Allocs uint64
	Bytes  uint64
}

// selfTotals sums each span name's self time and self allocations. A span's
// self time is its duration minus the part of it that its children cover
// (the union of their intervals clipped to the parent, so overlapping
// children are not subtracted twice). Self allocations subtract the direct
// children's totals, which is exact for the nested, single-goroutine spans
// the tracer records.
func selfTotals(spans []span) map[string]layerTotals {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTotals{}
	for _, s := range spans {
		kids := children[s.ID]
		lt := out[s.Name]
		lt.Calls++
		lt.Self += s.End - s.Start - covered(s, kids)
		allocs, bytes := s.Allocs, s.Bytes
		for _, k := range kids {
			allocs -= min(allocs, k.Allocs)
			bytes -= min(bytes, k.Bytes)
		}
		lt.Allocs += allocs
		lt.Bytes += bytes
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals inside the
// parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// write dumps the spans and counters as JSON.
func (t *tracer) write(path string) error {
	blob, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
