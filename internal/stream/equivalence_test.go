package stream_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/stream"
)

// The batch↔stream equivalence property: at every hop, for every worker
// count and decision mode, the streaming detector's output must be
// byte-identical to tolerant core.Detect run on the materialized sliding
// window, and
// the streaming localizer's vote output must be byte-identical to
// core.Localizer.Localize on the same windows. These tests enforce the
// property exhaustively over a fault-injected synthetic stream.

// detectOpts translates a tolerant batch core.DetectConfig into the stream
// option list that reproduces it, so each equivalence case states its
// semantics once in batch terms. workers is the stream side's flush pool.
func detectOpts(window, workers int, cfg core.DetectConfig) []stream.Option {
	opts := []stream.Option{stream.WithWindow(window), stream.WithWorkers(workers)}
	if cfg.Alpha != 0 {
		opts = append(opts, stream.WithAlpha(cfg.Alpha))
	}
	if cfg.FDR != 0 {
		opts = append(opts, stream.WithFDR(cfg.FDR))
	}
	if cfg.MinSamples != 0 {
		opts = append(opts, stream.WithMinSamples(cfg.MinSamples))
	}
	return opts
}

// noisyDet returns a copy of the workload's hops with deterministic NaN/Inf
// injections (positions pinned by the workload's canonical name order),
// exercising the tolerant path's finite-value filtering and the min-sample
// guard (a freshly poisoned pair can drop below MinSamples).
func noisyDet(w *stream.SynthWorkload) []map[string]map[string]float64 {
	out := make([]map[string]map[string]float64, len(w.Hops))
	for h, hop := range w.Hops {
		oh := make(map[string]map[string]float64, len(hop))
		for mi, m := range w.MetricNames {
			ov := make(map[string]float64, len(hop[m]))
			for si, svc := range w.Services {
				v := hop[m][svc]
				switch (h + 3*mi + 7*si) % 19 {
				case 4:
					v = math.NaN()
				case 9:
					v = math.Inf(1)
				}
				ov[svc] = v
			}
			oh[m] = ov
		}
		out[h] = oh
	}
	return out
}

func TestDetectorMatchesBatchEveryHop(t *testing.T) {
	w, err := stream.NewSynth(stream.SynthConfig{
		Services: 6, Metrics: 3, BaselineLen: 12, Hops: 30,
		Seed: 3, FaultService: 2, FaultAfter: 10,
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		hops   []map[string]map[string]float64
		detect core.DetectConfig
		sketch bool
	}{
		{"alpha-tolerant", noisyDet(w), core.DetectConfig{Alpha: 0.05, Tolerant: true}, false},
		{"fdr-tolerant", noisyDet(w), core.DetectConfig{FDR: 0.10, Tolerant: true}, false},
		{"minsamples-tolerant", noisyDet(w), core.DetectConfig{Alpha: 0.05, Tolerant: true, MinSamples: 6}, false},
		// BaselineLen 12 <= stats.SketchCutoff(DefaultSketchEps): the sketch
		// is lossless, so even the sketched detector must match batch exactly.
		{"alpha-tolerant-sketch", noisyDet(w), core.DetectConfig{Alpha: 0.05, Tolerant: true}, true},
		{"fdr-tolerant-sketch", noisyDet(w), core.DetectConfig{FDR: 0.10, Tolerant: true}, true},
	}

	const window = 8
	ctx := context.Background()
	for _, tc := range cases {
		for workers := 1; workers <= 8; workers++ {
			cfg := tc.detect
			// Vary the shard count with the worker count: detection output
			// must not depend on either.
			opts := append(detectOpts(window, workers, cfg), stream.WithShards(workers))
			if tc.sketch {
				opts = append(opts, stream.WithSketch(stream.DefaultSketchEps))
			}
			det, err := stream.NewDetector(w.Baseline, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for h, hop := range tc.hops {
				if err := det.ObserveHop(hop); err != nil {
					t.Fatalf("%s w=%d hop %d: observe: %v", tc.name, workers, h, err)
				}
				mat := det.Materialize()
				for _, m := range w.MetricNames {
					got, err := det.Detect(ctx, m)
					if err != nil {
						t.Fatalf("%s w=%d hop %d %s: stream: %v", tc.name, workers, h, m, err)
					}
					want, err := core.Detect(ctx, cfg, w.Baseline, mat, m)
					if err != nil {
						t.Fatalf("%s w=%d hop %d %s: batch: %v", tc.name, workers, h, m, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s w=%d hop %d %s: stream %+v, batch %+v",
							tc.name, workers, h, m, got, want)
					}
				}
			}
		}
	}
}

func TestLocalizerMatchesBatchEveryHop(t *testing.T) {
	w, err := stream.NewSynth(stream.SynthConfig{
		Services: 5, Metrics: 3, BaselineLen: 10, Hops: 24,
		Seed: 11, FaultService: 3, FaultAfter: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := w.Model()
	hops := noisyDet(w)
	const window = 7

	modes := []struct {
		name  string
		alpha float64
		fdr   float64
	}{
		{"alpha", 0, 0}, // falls back to model.Alpha on both paths
		{"fdr", 0, 0.10},
	}
	ctx := context.Background()
	for _, mode := range modes {
		for workers := 1; workers <= 8; workers++ {
			lopts := []stream.Option{
				stream.WithWindow(window), stream.WithWorkers(workers), stream.WithShards(workers * 3),
			}
			if mode.alpha != 0 {
				lopts = append(lopts, stream.WithAlpha(mode.alpha))
			}
			if mode.fdr != 0 {
				lopts = append(lopts, stream.WithFDR(mode.fdr))
			}
			sl, err := stream.NewLocalizer(model, lopts...)
			if err != nil {
				t.Fatal(err)
			}
			var opts []core.Option
			opts = append(opts, core.WithWorkers(workers))
			if mode.fdr > 0 {
				opts = append(opts, core.WithFDR(mode.fdr))
			}
			batch, err := core.NewLocalizer(opts...)
			if err != nil {
				t.Fatal(err)
			}
			for h, hop := range hops {
				v, err := sl.Step(ctx, 0, hop)
				if err != nil {
					t.Fatalf("%s w=%d hop %d: step: %v", mode.name, workers, h, err)
				}
				want, err := batch.Localize(ctx, model, sl.Detector().Materialize())
				if err != nil {
					t.Fatalf("%s w=%d hop %d: batch: %v", mode.name, workers, h, err)
				}
				// Aggregate never sees the production snapshot, so the
				// streaming verdict carries no degradation report; strip it
				// before the whole-struct comparison.
				want.Degradation = nil
				if !reflect.DeepEqual(v.Full, want) {
					t.Fatalf("%s w=%d hop %d: stream %+v, batch %+v", mode.name, workers, h, v.Full, want)
				}
				if !reflect.DeepEqual(v.Candidates, want.Candidates) ||
					!reflect.DeepEqual(v.Votes, want.Votes) || v.Abstained != want.Abstained {
					t.Fatalf("%s w=%d hop %d: verdict fields diverge from batch", mode.name, workers, h)
				}
			}
		}
	}
}

// TestDetectorSkipsUnobservedPair checks that a never-observed pair is
// skipped the way tolerant batch detection skips a missing snapshot entry.
func TestDetectorSkipsUnobservedPair(t *testing.T) {
	base := metrics.NewSnapshot([]string{"m"}, []string{"a", "b"})
	rng := rand.New(rand.NewSource(5))
	for _, svc := range []string{"a", "b"} {
		s := make([]float64, 8)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		base.Data["m"][svc] = s
	}
	ctx := context.Background()

	tol, err := stream.NewDetector(base, stream.WithWindow(4), stream.WithAlpha(0.05))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := tol.Observe("m", "a", rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tol.Detect(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Detect(ctx, core.DetectConfig{Alpha: 0.05, Tolerant: true}, base, tol.Materialize(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tolerant skip diverges: stream %+v, batch %+v", got, want)
	}
	if got.Tested != 1 {
		t.Fatalf("tolerant family size %d, want 1", got.Tested)
	}
}
