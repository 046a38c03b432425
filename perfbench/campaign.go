package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"causalfl/internal/apps"
	"causalfl/internal/apps/causalbench"
	"causalfl/internal/chaos"
	"causalfl/internal/core"
	"causalfl/internal/eval"
	"causalfl/internal/load"
	"causalfl/internal/metrics"
	"causalfl/internal/sim"
	"causalfl/internal/telemetry"
)

// paperCampaign is the campaign workload's unit of work: paper-length
// CausalBench training and evaluation on the serial reference path.
func paperCampaign(seed int64) eval.Config {
	return campaignConfig(causalbench.Build, seed, false, nil)
}

// campaigner repeats a workload's campaign across the rounds of a run and
// checks every repeat's digest against one expected value.
type campaigner struct {
	run  func() (string, error) // one campaign; returns its outputs' digest
	want string                 // expected digest; the first repeat's when empty
	// speed samples the host's speed around each repeat; nil leaves the
	// times as measured.
	speed *speedo
	secs  []float64 // seconds per repeat at the reference speed
	raw   []float64 // wall seconds per repeat, as measured
	mb    []float64 // MB allocated per repeat
	// failed counts repeats that errored or whose digest differs from want.
	failed int
}

// slice runs one round's repeats: at least one, and another while the
// last one would still fit in budget.
func (c *campaigner) slice(budget time.Duration) error {
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= budget; n++ {
		before, err := c.speed.begin()
		if err != nil {
			return err
		}
		runtime.GC()
		var pre, post runtime.MemStats
		runtime.ReadMemStats(&pre)
		t0 := time.Now()
		got, err := c.run()
		last = time.Since(t0)
		runtime.ReadMemStats(&post)
		f, ferr := c.speed.end(before)
		if ferr != nil {
			return ferr
		}
		c.secs = append(c.secs, last.Seconds()*f)
		c.raw = append(c.raw, last.Seconds())
		c.mb = append(c.mb, float64(post.TotalAlloc-pre.TotalAlloc)/(1<<20))
		if err == nil && c.want == "" {
			c.want = got
		}
		if err != nil || got != c.want {
			c.failed++
		}
	}
	return nil
}

// runCampaign runs one campaign and returns the digest of its outputs:
// eval.Run with evaluate set, eval.Train otherwise.
func runCampaign(ctx context.Context, cfg eval.Config, evaluate bool) (string, error) {
	var model *core.Model
	var report *eval.Report
	var err error
	if evaluate {
		model, report, err = eval.Run(ctx, cfg)
	} else {
		model, err = eval.Train(ctx, cfg)
	}
	if err != nil {
		return "", err
	}
	return runDigest(model, report)
}

// runDigest fingerprints a campaign's model and, when there is one, its
// report.
func runDigest(model *core.Model, report *eval.Report) (string, error) {
	var buf bytes.Buffer
	if err := model.WriteJSON(&buf); err != nil {
		return "", fmt.Errorf("encode model: %w", err)
	}
	if report != nil {
		rep, err := json.Marshal(report)
		if err != nil {
			return "", fmt.Errorf("encode report: %w", err)
		}
		buf.Write(rep)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), nil
}

// session is the benchmark's recomposition of one eval campaign session
// from the layers' public calls, with a span around each call. It follows
// eval's own session step for step, so a recomposed model must be
// byte-identical to eval.Train's.
type session struct {
	cfg      eval.Config
	tr       *tracer
	eng      *sim.Engine
	app      *apps.App
	sampler  *telemetry.Sampler
	injector *chaos.Injector
	targets  []string
}

func newSession(cfg eval.Config, tr *tracer, multiplier float64, seed int64) (*session, error) {
	s := &session{cfg: cfg, tr: tr, eng: sim.NewEngine(seed)}
	sp := tr.begin("apps.build")
	app, err := cfg.Build(s.eng)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("build app: %w", err)
	}
	s.app = app
	gen, err := load.NewGenerator(app, load.Config{
		Mode: cfg.LoadMode, RatePerSecond: cfg.Rate, Users: cfg.Users,
		Multiplier: multiplier, Diurnal: cfg.Diurnal,
	})
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	if s.sampler, err = telemetry.NewSampler(app.Cluster, cfg.SampleInterval); err != nil {
		return nil, fmt.Errorf("sampler: %w", err)
	}
	if s.injector, err = chaos.NewInjector(app.Cluster); err != nil {
		return nil, fmt.Errorf("injector: %w", err)
	}
	sp = tr.begin("load.start")
	err = gen.Start()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("start load: %w", err)
	}
	s.run(cfg.Warmup)
	if err := s.sampler.Start(); err != nil {
		return nil, fmt.Errorf("start sampler: %w", err)
	}
	s.targets = cfg.Targets
	if len(s.targets) == 0 {
		s.targets = app.FaultTargets
	}
	return s, nil
}

// run advances the engine by d: the span covers the simulator and every
// load, chaos and sampler callback it executes.
func (s *session) run(d time.Duration) {
	sp := s.tr.begin("sim.run")
	n := s.eng.Run(s.eng.Now() + d)
	s.tr.end(sp)
	s.tr.count("sim.events", float64(n))
}

func (s *session) collect(d time.Duration) (*metrics.Snapshot, error) {
	s.sampler.Discard()
	s.run(d)
	sp := s.tr.begin("telemetry.drain")
	drained := s.sampler.Drain()
	s.tr.end(sp)
	for _, ss := range drained {
		s.tr.count("telemetry.samples", float64(len(ss)))
	}
	sp = s.tr.begin("telemetry.windows")
	windows, err := telemetry.WindowsByService(drained, s.cfg.WindowLength, s.cfg.WindowHop)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = s.tr.begin("metrics.derive")
	snap, err := metrics.BuildSnapshot(windows, s.app.Services(), s.cfg.Metrics)
	s.tr.end(sp)
	return snap, err
}

func (s *session) settle() {
	s.run(s.cfg.Settle)
	s.sampler.Discard()
}

func (s *session) collectWithFault(target string) (*metrics.Snapshot, error) {
	sp := s.tr.begin("chaos.inject")
	err := s.injector.Inject(target, s.cfg.Fault)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	s.settle()
	snap, err := s.collect(s.cfg.FaultDuration)
	if err != nil {
		return nil, err
	}
	sp = s.tr.begin("chaos.inject")
	err = s.injector.Clear(target)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	s.settle()
	return snap, nil
}

// recomposeTrain is eval.Train rebuilt from public layer calls.
func recomposeTrain(ctx context.Context, cfg eval.Config, tr *tracer) (*core.Model, error) {
	root := tr.begin("eval.train")
	defer tr.end(root)
	s, err := newSession(cfg, tr, cfg.TrainMultiplier, cfg.Seed)
	if err != nil {
		return nil, err
	}
	baseline, err := s.collect(cfg.BaselineDuration)
	if err != nil {
		return nil, err
	}
	interventions := make(map[string]*metrics.Snapshot, len(s.targets))
	for _, target := range s.targets {
		if interventions[target], err = s.collectWithFault(target); err != nil {
			return nil, err
		}
	}
	learner, err := core.NewLearner(core.WithAlpha(cfg.Alpha), core.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	sp := tr.begin("core.learn")
	defer tr.end(sp)
	return learner.Learn(ctx, baseline, interventions)
}

// recomposeEvaluate is eval.Evaluate's single test round rebuilt from
// public layer calls; it returns each case's candidate set in case order.
func recomposeEvaluate(ctx context.Context, cfg eval.Config, model *core.Model, tr *tracer) ([][]string, error) {
	root := tr.begin("eval.evaluate")
	defer tr.end(root)
	s, err := newSession(cfg, tr, cfg.TestMultiplier, cfg.Seed+1009)
	if err != nil {
		return nil, err
	}
	localizer, err := core.NewLocalizer(core.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	var out [][]string
	for _, target := range s.targets {
		prod, err := s.collectWithFault(target)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("core.localize")
		loc, err := localizer.Localize(ctx, model, prod)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		out = append(out, loc.Candidates)
	}
	return out, nil
}

// tracedCampaign times a workload's campaign untraced through eval, then
// traced through the recomposition, and checks the two agree: the model
// JSON byte for byte, and (with evaluate set) every case's candidates. It
// returns the untraced and traced wall seconds.
func tracedCampaign(ctx context.Context, cfg eval.Config, evaluate bool, tr *tracer) (plain, traced float64, err error) {
	t0 := time.Now()
	var model *core.Model
	var report *eval.Report
	if evaluate {
		model, report, err = eval.Run(ctx, cfg)
	} else {
		model, err = eval.Train(ctx, cfg)
	}
	if err != nil {
		return 0, 0, err
	}
	plain = time.Since(t0).Seconds()

	t0 = time.Now()
	spelled := spelledOut(cfg)
	got, err := recomposeTrain(ctx, spelled, tr)
	if err != nil {
		return 0, 0, fmt.Errorf("recomposed train: %w", err)
	}
	var cands [][]string
	if evaluate {
		if cands, err = recomposeEvaluate(ctx, spelled, got, tr); err != nil {
			return 0, 0, fmt.Errorf("recomposed evaluate: %w", err)
		}
	}
	traced = time.Since(t0).Seconds()

	var a, b bytes.Buffer
	if err := model.WriteJSON(&a); err != nil {
		return 0, 0, err
	}
	if err := got.WriteJSON(&b); err != nil {
		return 0, 0, err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return 0, 0, fmt.Errorf("recomposed training differs from eval.Train: the layer numbers would describe another program")
	}
	if evaluate {
		var want [][]string
		for _, o := range report.Outcomes {
			want = append(want, o.Candidates)
		}
		if !reflect.DeepEqual(want, cands) {
			return 0, 0, fmt.Errorf("recomposed evaluation differs from eval.Evaluate")
		}
	}
	return plain, traced, nil
}
