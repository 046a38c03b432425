package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"
)

// Host-speed normalisation. On a shared host the CPU's speed drifts by
// ±20% within seconds and by as much again in spells that outlast a run,
// so a wall time measured in one run says as much about the host as about
// the program. The harness therefore times a fixed reference kernel —
// stdlib code only, so no change to causalfl can change its speed — right
// before and right after every measured span, and scales the span's wall
// time by how fast the kernel ran against kernelRef. Times are reported in
// seconds at the reference speed: a change to causalfl still moves them
// one for one, while a host that is 20% slower for a minute moves them
// much less.
const (
	// A speed sample runs the kernel for kernelSlices slices of kernelSlice
	// each and takes the median slice's rate, so a brief preemption or
	// collector pause inside the sample does not count as a slow host.
	kernelSlices = 10
	kernelSlice  = 20 * time.Millisecond
	// kernelLanes is how many copies of the kernel a sample runs at once,
	// one per vCPU of the 2-vCPU host the benchmark was tuned on: the
	// serving path keeps both busy, and one can be slow while the other is
	// not.
	kernelLanes = 2
	// kernelRef is the reference speed in kernel iterations per second
	// over all lanes, about the median on a 2.1 GHz Xeon VM.
	kernelRef = 2500.0
	// kernelLen is how many floats one kernel iteration sorts.
	kernelLen = 4096
)

// speedo samples the host's speed with the reference kernel.
type speedo struct {
	lanes   [kernelLanes]*kernel
	last    float64 // the latest sample, in kernel iterations per second
	fresh   bool    // last was taken at the end of a span and not used since
	samples []float64
}

func newSpeedo() *speedo {
	s := &speedo{}
	for i := range s.lanes {
		s.lanes[i] = &kernel{rng: rand.New(rand.NewSource(int64(i + 1))), buf: make([]float64, kernelLen)}
	}
	return s
}

// kernel is one lane's reference work and its state.
type kernel struct {
	rng *rand.Rand
	buf []float64
}

// once is one iteration of the reference work: sort, hash, encode and
// decode, the mix the campaign and the serving path spend their time on.
// It returns a checksum so the work cannot be skipped.
func (k *kernel) once() (int, error) {
	for i := range k.buf {
		k.buf[i] = k.rng.Float64()
	}
	sort.Float64s(k.buf)
	m := make(map[int]float64, 1024)
	for i, x := range k.buf {
		m[i&1023] += x
	}
	blob, err := json.Marshal(k.buf[:256])
	if err != nil {
		return 0, err
	}
	var back []float64
	if err := json.Unmarshal(blob, &back); err != nil {
		return 0, err
	}
	return len(m) + len(back), nil
}

// run repeats the kernel for d and returns how many iterations it did.
func (k *kernel) run(d time.Duration) (int, error) {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < d {
		c, err := k.once()
		if err != nil {
			return n, fmt.Errorf("reference kernel: %w", err)
		}
		if c != 1024+256 {
			return n, fmt.Errorf("reference kernel: checksum %d", c)
		}
		n++
	}
	return n, nil
}

// laneCount is one slice's result from the second lane.
type laneCount struct {
	n   int
	err error
}

// sample runs the kernel on both lanes at once and records the median
// slice's combined rate. It first collects the heap and returns it to the
// OS, so neither the collector nor the background scavenger runs during
// the sample or the span that follows it.
func (s *speedo) sample() error {
	debug.FreeOSMemory()
	start := make(chan struct{})
	counts := make(chan laneCount)
	defer close(start)
	go func() {
		for range start {
			n, err := s.lanes[1].run(kernelSlice)
			counts <- laneCount{n, err}
		}
	}()
	rates := make([]float64, kernelSlices)
	for i := range rates {
		t0 := time.Now()
		start <- struct{}{}
		n, err := s.lanes[0].run(kernelSlice)
		other := <-counts
		if err != nil {
			return err
		}
		if other.err != nil {
			return other.err
		}
		rates[i] = float64(n+other.n) / time.Since(t0).Seconds()
	}
	s.last = median(rates)
	s.samples = append(s.samples, s.last)
	return nil
}

// begin returns the host's speed at the start of a span: the sample taken
// at the end of the previous span when nothing has used it yet, otherwise
// a new one. A nil speedo leaves times as measured.
func (s *speedo) begin() (float64, error) {
	if s == nil {
		return kernelRef, nil
	}
	if !s.fresh {
		if err := s.sample(); err != nil {
			return 0, err
		}
	}
	s.fresh = false
	return s.last, nil
}

// end samples the speed at the end of a span that began at speed before,
// and returns the span's factor: the mean of the two samples over
// kernelRef. A wall time times the factor is the time at the reference
// speed; a rate divided by it is the rate at the reference speed.
func (s *speedo) end(before float64) (float64, error) {
	if s == nil {
		return 1, nil
	}
	if err := s.sample(); err != nil {
		return 0, err
	}
	s.fresh = true
	return speedFactor(before, s.last), nil
}

// speedFactor is a span's factor from the speeds sampled at its ends.
func speedFactor(before, after float64) float64 {
	return (before + after) / 2 / kernelRef
}
