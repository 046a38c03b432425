package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"causalfl/internal/serve"
	"causalfl/internal/stream"
)

// reference is the tenant's in-process pipeline, fed the ticks the server
// accepted in the order it accepted them. Its timeline is what the server
// must return byte for byte, and it says which ingest completed each hop.
type reference struct {
	pipe      *stream.Pipeline
	done      int                // accepted ingests consumed
	verdicts  []serve.SeqVerdict // the expected timeline
	from      []int              // per verdict: index into serving.ops of the completing ingest
	confirmed bool               // some verdict confirmed the tenant's culprit
}

// advance feeds the accepted ingests not yet consumed.
func (r *reference) advance(ctx context.Context, s *serving) error {
	acc := s.accepted()
	for ; r.done < len(acc); r.done++ {
		o := s.ops[acc[r.done]]
		vs, err := r.pipe.Tick(ctx, decodeTick(s.in.Stream.tick(o.k, s.in.Train.SampleInterval)))
		if err != nil {
			return fmt.Errorf("reference pipeline: %w", err)
		}
		for _, v := range vs {
			r.verdicts = append(r.verdicts, serve.SeqVerdict{Seq: uint64(len(r.verdicts) + 1), Verdict: v})
			r.from = append(r.from, acc[r.done])
			for _, c := range v.Confirmed {
				r.confirmed = r.confirmed || c == s.in.Stream.Culprit
			}
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measureBlock waits for the server to finish a phase's ingests and for
// the subscriber to hold their verdicts. It returns the phase's verdict
// latencies in ms, in verdict order: from the due time of the ingest that
// completed each hop to the verdict's arrival.
func (b *bench) measureBlock(ctx context.Context, s *serving, ref *reference, first, last int) ([]float64, error) {
	if _, err := s.settle(ctx); err != nil {
		return nil, err
	}
	if err := ref.advance(ctx, s); err != nil {
		return nil, err
	}
	if err := s.waitVerdicts(uint64(len(ref.verdicts))); err != nil {
		return nil, err
	}
	s.mu.Lock()
	got := s.got
	s.mu.Unlock()
	var lat []float64
	for j, o := range ref.from {
		if o >= first && o < last && j < len(got) {
			lat = append(lat, ms(got[j].at-s.ops[o].due))
		}
	}
	return lat, nil
}

// serveSession drives the child: a warm-up, then the rounds, each running
// a campaign slice (when campaign is set), a block at the nominal rate and,
// untraced, a saturation phase. Then it shuts the child down and runs every
// correctness check.
func (b *bench) serveSession(ctx context.Context, s *serving, campaign *campaigner) error {
	subCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.subscribe(subCtx)
	}()
	stopSub := func() {
		cancel()
		wg.Wait()
	}
	defer stopSub()

	pipe, err := newPipeline(s.in)
	if err != nil {
		return err
	}
	ref := &reference{pipe: pipe}

	// Warm up at the nominal rate: the server's heap, caches and GC pacing
	// settle before the first block.
	if _, _, _, err := s.phase(ctx, nominalRate, max(minWarm, b.frac(warmFrac))); err != nil {
		return err
	}
	if _, err := s.settle(ctx); err != nil {
		return err
	}
	nRounds := rounds
	if b.trace {
		nRounds = 1
	}
	// Times and rates are scaled to the reference host speed by each
	// span's factor; the raw ones are printed beside them.
	var acks, rawAcks, lates, verdicts, caps, rawCaps, factors, satLat []float64
	for round := 0; round < nRounds; round++ {
		if campaign != nil {
			if err := campaign.slice(b.frac(b.w.campaignFrac) / time.Duration(nRounds)); err != nil {
				return err
			}
		}
		// The block runs in sub-blocks, each scaled by its own factor, so
		// the speed samples follow the host closely.
		for sub := 0; sub < subBlocks; sub++ {
			before, err := b.speed.begin()
			if err != nil {
				return err
			}
			first, last, aborted, err := s.phase(ctx, nominalRate, b.frac(nominalFrac)/time.Duration(nRounds*subBlocks))
			if err != nil {
				return err
			}
			lat, err := b.measureBlock(ctx, s, ref, first, last)
			if err != nil {
				return err
			}
			f, err := b.speed.end(before)
			if err != nil {
				return err
			}
			factors = append(factors, f)
			for _, l := range lat {
				verdicts = append(verdicts, l*f)
			}
			for _, o := range s.ops[first:last] {
				b.res.Attempted++
				if o.status != http.StatusAccepted {
					b.res.Failed++
					continue
				}
				acks = append(acks, ms(o.ack-o.due)*f)
				rawAcks = append(rawAcks, ms(o.ack-o.due))
				lates = append(lates, ms(o.late))
			}
			if aborted {
				b.gate("nominal block fell %v behind its schedule", maxBehind)
			}
			fmt.Fprintf(os.Stderr, "round %d block %d: factor %.3f; as measured: ack p50 %.2f ms, verdict p50 %.2f ms\n",
				round, sub, f, summarize(rawAcks[len(rawAcks)-(last-first):]).P50, summarize(lat).P50)
		}
		if b.trace {
			continue
		}
		for sub := 0; sub < subBlocks; sub++ {
			before, err := b.speed.begin()
			if err != nil {
				return err
			}
			first, last, rate, err := s.saturate(ctx, b.frac(saturateFrac)/time.Duration(nRounds*subBlocks))
			if err != nil {
				return err
			}
			lat, err := b.measureBlock(ctx, s, ref, first, last)
			if err != nil {
				return err
			}
			f, err := b.speed.end(before)
			if err != nil {
				return err
			}
			for _, o := range s.ops[first:last] {
				b.res.Attempted++
				if o.status != http.StatusAccepted {
					b.res.Failed++
				}
			}
			caps = append(caps, rate/f)
			rawCaps = append(rawCaps, rate)
			satLat = append(satLat, lat...)
		}
	}

	ack, verdict, late := chunked(acks, chunkSize), chunked(verdicts, chunkSize), summarize(lates)
	b.set("ack_p50_ms", ack.P50, "ms")
	b.set("loadgen.ack_p99_ms", ack.Tail, "ms")
	b.set("verdict_p50_ms", verdict.P50, "ms")
	b.set("loadgen.verdict_p99_ms", verdict.Tail, "ms")
	b.set("loadgen.late_p99_ms", late.Tail, "ms")
	if !b.trace {
		b.set("max_ticks_per_s", median(caps), "1/s")
	}
	fmt.Fprintf(os.Stderr, "nominal %.0f ticks/s, at the reference speed: ack p50 %.2f ms, p%d %.2f ms (n=%d); verdict p50 %.2f ms, p%d %.2f ms (n=%d); generator late p%d %.2f ms; saturation %.1f ticks/s\n",
		nominalRate, ack.P50, ack.TailAt, ack.Tail, ack.N,
		verdict.P50, verdict.TailAt, verdict.Tail, verdict.N, late.TailAt, late.Tail, caps)
	if sat := summarize(satLat); sat.N > 0 {
		fmt.Fprintf(os.Stderr, "saturation verdict latency: p50 %.2f ms, p%d %.2f ms (n=%d)\n", sat.P50, sat.TailAt, sat.Tail, sat.N)
	}
	fmt.Fprintf(os.Stderr, "as measured: ack p50 %.2f ms; saturation %.1f ticks/s; block speed factors %.3f; kernel samples %.0f/s\n",
		chunked(rawAcks, chunkSize).P50, rawCaps, factors, b.speed.samples)
	if late.Tail > lateLimitMs {
		b.gate("run invalid: the generator woke %.1f ms late at p%d (limit %d ms)", late.Tail, late.TailAt, lateLimitMs)
	}
	if s.pollStats {
		qmax, qsum := 0.0, 0.0
		for _, q := range s.queueLens {
			qmax = max(qmax, q)
			qsum += q
		}
		b.set("serve.queue_len_max", qmax, "count")
		b.set("serve.queue_len_mean", qsum/float64(max(1, len(s.queueLens))), "count")
	}

	st, err := s.settle(ctx)
	if err != nil {
		return err
	}
	if s.pollStats {
		b.set("serve.shed", float64(st.Shed), "count")
	}
	if err := ref.advance(ctx, s); err != nil {
		return err
	}
	if err := s.waitVerdicts(uint64(len(ref.verdicts))); err != nil {
		return err
	}
	if err := b.compare(s.timeline(), ref); err != nil {
		return err
	}
	if !ref.confirmed {
		b.gate("culprit %s never confirmed", s.in.Stream.Culprit)
	}

	// Cancel every long-poll before the signal: a parked ?wait=1 request
	// holds serve's shutdown open.
	stopSub()
	rss, err := s.c.shutdown()
	if err != nil {
		b.gate("shutdown: %v", err)
		return nil
	}
	b.set("server_rss_mb", rss, "MB")
	if err := s.checkSnapshot(st); err != nil {
		b.gate("%v", err)
	}
	return nil
}

// compare checks the served timeline against the reference, verdict by
// verdict; a missing, extra or differing verdict is a failed operation.
func (b *bench) compare(got []serve.SeqVerdict, ref *reference) error {
	b.res.Attempted += len(ref.verdicts)
	for j, want := range ref.verdicts {
		if j >= len(got) {
			b.res.Failed += len(ref.verdicts) - j
			break
		}
		wb, err := json.Marshal(want)
		if err != nil {
			return err
		}
		gb, err := json.Marshal(got[j])
		if err != nil {
			return err
		}
		if !bytes.Equal(wb, gb) {
			b.res.Failed++
		}
	}
	if extra := len(got) - len(ref.verdicts); extra > 0 {
		b.res.Failed += extra
	}
	return nil
}
