package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailStat is a latency distribution summarised the way the benchmark
// reports it: the median, plus the highest whole percentile (at most p99)
// that still has minBeyond samples above it.
type tailStat struct {
	N      int
	P50    float64
	Tail   float64
	TailAt int // the percentile Tail reports; 100 means the maximum
}

// summarize computes a tailStat with nearest-rank percentiles. With fewer
// than 2*minBeyond samples no percentile has minBeyond samples beyond it
// and half below it, so Tail falls back to the maximum (TailAt 100).
func summarize(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	st := tailStat{N: n, P50: s[rank(50, n)-1], Tail: s[n-1], TailAt: 100}
	for p := 99; p >= 50; p-- {
		k := rank(p, n)
		if n-k >= minBeyond {
			st.Tail, st.TailAt = s[k-1], p
			break
		}
	}
	return st
}

// chunkSize is how many consecutive samples form one sub-window of a
// latency series. 100 samples put the sub-window tail at p90.
const chunkSize = 100

// chunked summarises a time-ordered series robustly: it splits the series
// into consecutive sub-windows of about size samples, summarises each, and
// reports the median of the sub-windows' medians and of their tails. A burst
// of host noise then moves one sub-window, not the reported figure. TailAt
// is the lowest sub-window percentile; N counts every sample.
func chunked(xs []float64, size int) tailStat {
	n := len(xs)
	k := max(1, n/size)
	var p50s, tails []float64
	st := tailStat{N: n, TailAt: 100}
	for i := 0; i < k; i++ {
		c := summarize(xs[i*n/k : (i+1)*n/k])
		p50s = append(p50s, c.P50)
		tails = append(tails, c.Tail)
		st.TailAt = min(st.TailAt, c.TailAt)
	}
	if n == 0 {
		return tailStat{}
	}
	st.P50, st.Tail = median(p50s), median(tails)
	return st
}

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(p, n int) int {
	k := (p*n + 99) / 100
	if k < 1 {
		k = 1
	}
	return k
}

// median of a sample (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// throughput is the rate, per second, at which events arrived at the
// given times (in order), counted after the first skip of them, while the
// generator was still filling its window. Fewer than two counted events
// give 0.
func throughput(at []time.Duration, skip int) float64 {
	if len(at)-skip < 2 {
		return 0
	}
	span := at[len(at)-1] - at[skip]
	if span <= 0 {
		return 0
	}
	return float64(len(at)-1-skip) / span.Seconds()
}
