// Command perfbench is causalfl's end-to-end benchmark. It measures the two
// paths users run — the training campaign (simulate, scrape, window,
// derive, learn, localize) and served tenants (HTTP ingest through verdict
// and snapshot, against a `causalfl serve` child process) — checks every
// output against an in-process reference, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload serve-wide --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workload is one input mix. Every workload exercises both paths: its
// campaign and its serving session against a `causalfl serve` child that
// hosts one 512-service synth tenant. After a warm-up the measured phase
// runs in rounds, each a slice of campaign repeats, a block at the nominal
// rate, and a closed-loop saturation phase. Rounds spread every
// metric's samples across the run, so a slow spell of a shared host that
// is shorter than a round moves one round, not the reported medians.
type workload struct {
	name string
	// paper makes the campaign paper-length CausalBench training plus
	// evaluation; otherwise it is the training of the tenant model, as
	// set-up runs it.
	paper bool
	// campaignFrac is the share of --seconds given to campaigns, over all
	// rounds. A round always runs at least one repeat.
	campaignFrac float64
}

// workloads lists the benchmark's workloads, as BENCHMARK.json names them.
var workloads = []workload{
	{name: "campaign", paper: true, campaignFrac: 0.35},
	{name: "serve-wide", campaignFrac: 0.35},
}

// Fixed limits of the benchmark.
const (
	// nominalRate is the nominal blocks' rate in ticks/s, well below
	// capacity.
	nominalRate = 40.0
	// nominalFrac is the share of --seconds given to nominal blocks, over
	// all rounds. With saturateFrac, warmFrac and a workload's campaignFrac
	// the shares add up to the whole run.
	nominalFrac = 0.4
	// saturateFrac is the share of --seconds given to saturation phases,
	// over all rounds.
	saturateFrac = 0.2
	// lateLimitMs invalidates a phase whose generator woke this late at its
	// tail percentile: the numbers would measure the scheduler.
	lateLimitMs = 20
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps = 3
	// rounds is how many times a run alternates campaign, nominal block
	// and saturation phase.
	rounds = 3
	// subBlocks is how many sub-blocks a round's nominal block runs in.
	subBlocks = 3
	// warmFrac is the serving warm-up's share of --seconds, and minWarm its
	// floor.
	warmFrac = 0.05
	minWarm  = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: campaign or serve-wide")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	bin := flag.String("serve-bin", "", "path to the causalfl binary")
	work := flag.String("work", "", "scratch directory for snapshots, logs and traces")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *bin == "" || *work == "":
		fmt.Fprintln(os.Stderr, "perfbench: -serve-bin and -work are required")
		return 2
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{w: *w, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, bin: *bin, dir: dir, res: result{Metrics: map[string]metric{}}}
	err := b.execute(context.Background())
	for _, g := range b.gates {
		fmt.Fprintln(os.Stderr, "perfbench: gate failed:", g)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.res.Correct = b.res.Failed == 0 && len(b.gates) == 0
	blob, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(blob))
	if !b.res.Correct {
		return 1
	}
	return 0
}

// bench is one run's state.
type bench struct {
	w      workload
	seed   int64
	budget time.Duration
	trace  bool
	bin    string
	dir    string
	res    result
	gates  []string // correctness-gate violations
	// speed normalises every end-to-end time to the reference host speed.
	speed *speedo
}

func (b *bench) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// gate records a correctness-gate violation as one failed operation.
func (b *bench) gate(format string, args ...any) {
	b.gates = append(b.gates, fmt.Sprintf(format, args...))
	b.res.Attempted++
	b.res.Failed++
}

func (b *bench) frac(f float64) time.Duration {
	return time.Duration(f * float64(b.budget))
}

func (b *bench) execute(ctx context.Context) error {
	reps := setupReps
	if b.trace {
		reps = 1
	}
	b.speed = newSpeedo()
	var setupSecs, setupRaw []float64
	var in *inputs
	var digest string
	for r := 0; r < reps; r++ {
		before, err := b.speed.begin()
		if err != nil {
			return err
		}
		t0 := time.Now()
		got, err := generate(ctx, b.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(t0).Seconds()
		f, err := b.speed.end(before)
		if err != nil {
			return err
		}
		setupSecs, setupRaw = append(setupSecs, wall*f), append(setupRaw, wall)
		d, err := got.digest()
		if err != nil {
			return err
		}
		b.res.Attempted++
		if r > 0 && d != digest {
			b.gate("set-up %d generated different inputs from the same seed", r)
		}
		digest, in = d, got
	}

	before, err := b.speed.begin()
	if err != nil {
		return err
	}
	t0 := time.Now()
	c, err := startChild(b.bin, b.dir)
	if err != nil {
		return err
	}
	defer c.kill()
	sv, err := newServing(ctx, c, in)
	if err != nil {
		return err
	}
	boot := time.Since(t0).Seconds()
	f, err := b.speed.end(before)
	if err != nil {
		return err
	}
	b.set("setup_s", median(setupSecs)+boot*f, "s")
	fmt.Fprintf(os.Stderr, "set-up: %.3f s at the reference speed (wall %.3f s: generate %v, boot %.3f s)\n",
		median(setupSecs)+boot*f, median(setupRaw)+boot, setupRaw, boot)

	var tr *tracer
	var repeats *campaigner
	if b.trace {
		tr = newTracer()
		if err := b.tracedLayers(ctx, in, tr); err != nil {
			return err
		}
		sv.pollStats = true
	} else {
		cfg := in.Train
		if b.w.paper {
			cfg = paperCampaign(b.seed)
		}
		repeats = &campaigner{run: func() (string, error) { return runCampaign(ctx, cfg, b.w.paper) }, speed: b.speed}
		if !b.w.paper {
			// Every repeated training must reproduce the set-up's model.
			if repeats.want, err = runDigest(in.Model, nil); err != nil {
				return err
			}
		}
	}

	if err := b.serveSession(ctx, sv, repeats); err != nil {
		return err
	}
	if b.trace {
		b.layerMetrics(tr)
		if err := tr.write(filepath.Join(b.dir, "trace.json")); err != nil {
			return err
		}
	} else {
		b.res.Attempted += len(repeats.secs)
		b.res.Failed += repeats.failed
		b.set("campaign_s", median(repeats.secs), "s")
		b.set("campaign_alloc_mb", median(repeats.mb), "MB")
		fmt.Fprintf(os.Stderr, "campaign: %.3f s at the reference speed (n=%d); wall %v s\n",
			median(repeats.secs), len(repeats.secs), repeats.raw)
	}
	return b.finish()
}
