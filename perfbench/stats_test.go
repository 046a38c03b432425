package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[n-1-i] = float64(i + 1) // descending: summarize must sort
	}
	return out
}

func TestSummarizeTailHasTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p50    float64
		tail   float64
		tailAt int
	}{
		// 1000 samples: p99 is rank 990, with exactly 10 above it.
		{n: 1000, p50: 500, tail: 990, tailAt: 99},
		// 200 samples: p99..p96 leave 2, 4, 6, 8 above; p95 (rank 190)
		// leaves 10.
		{n: 200, p50: 100, tail: 190, tailAt: 95},
		// 25 samples: p60 is rank 15 with 10 above; p61 is rank 16.
		{n: 25, p50: 13, tail: 15, tailAt: 60},
		// 15 samples: even p50 (rank 8) leaves only 7 above, so the tail
		// falls back to the maximum.
		{n: 15, p50: 8, tail: 15, tailAt: 100},
	}
	for _, c := range cases {
		got := summarize(seq(c.n))
		want := tailStat{N: c.n, P50: c.p50, Tail: c.tail, TailAt: c.tailAt}
		if got != want {
			t.Errorf("n=%d: got %+v, want %+v", c.n, got, want)
		}
	}
	if got := summarize(nil); got != (tailStat{}) {
		t.Errorf("empty: got %+v", got)
	}
}

func TestChunkedTakesMediansOfSubWindows(t *testing.T) {
	asc := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	// Two sub-windows, 1..200 and 201..400: p50s 100 and 300, p95 tails
	// 190 and 390.
	got := chunked(asc(400), 200)
	want := tailStat{N: 400, P50: 200, Tail: 290, TailAt: 95}
	if got != want {
		t.Errorf("two windows: got %+v, want %+v", got, want)
	}
	// A stall in one of three sub-windows does not move the result.
	xs := make([]float64, 600)
	for i := range xs {
		xs[i] = 1
	}
	for i := 200; i < 400; i++ {
		xs[i] = 50
	}
	if got := chunked(xs, 200); got.P50 != 1 || got.Tail != 1 || got.N != 600 {
		t.Errorf("stalled middle window: got %+v", got)
	}
	// Fewer samples than a window: one window over everything.
	if got, want := chunked(asc(25), 200), summarize(asc(25)); got != want {
		t.Errorf("short series: got %+v, want %+v", got, want)
	}
	if got := chunked(nil, 200); got != (tailStat{}) {
		t.Errorf("empty: got %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %v", got)
	}
}

func TestThroughput(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		var out []time.Duration
		for _, x := range xs {
			out = append(out, time.Duration(x)*time.Millisecond)
		}
		return out
	}
	cases := []struct {
		name string
		at   []time.Duration
		skip int
		want float64
	}{
		// Four arrivals after the skipped two, 10 ms apart: 3 gaps in 30 ms.
		{"skips the ramp", ms(0, 1, 100, 110, 120, 130), 2, 100},
		// A batch arriving at once still counts every event.
		{"batched", ms(0, 0, 50, 50, 100), 0, 40},
		{"too few", ms(0, 10), 1, 0},
		{"no span", ms(5, 5, 5), 0, 0},
	}
	for _, c := range cases {
		if got := throughput(c.at, c.skip); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: throughput %v, want %v", c.name, got, c.want)
		}
	}
}
