package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"causalfl/internal/apps"
	"causalfl/internal/apps/synth"
	"causalfl/internal/chaos"
	"causalfl/internal/core"
	"causalfl/internal/eval"
	"causalfl/internal/load"
	"causalfl/internal/metrics"
	"causalfl/internal/serve"
	"causalfl/internal/sim"
	"causalfl/internal/stream"
	"causalfl/internal/telemetry"
)

// Tenant-stream shape: the recorded segment is healthyTicks of normal
// traffic followed by faultyTicks with the culprit unavailable. The tenant's
// stream replays its segment back to back, each copy shifted later by the
// segment's length, so any number of ticks can be posted from one recording
// and the window grid never breaks.
const (
	healthyTicks = 36
	faultyTicks  = 48
	segmentTicks = healthyTicks + faultyTicks
	// wideServices, wideTargets and wideTopology fix the tenant: one
	// 512-service topology whose model is trained on a fixed subset of
	// fault targets. The run's seed varies its traffic, not its shape.
	wideServices = 512
	wideTargets  = 4
	wideTopology = 512
	// detectorWindow is the tenant's sliding KS window in hops.
	detectorWindow = 8
	// tenantName is the served tenant's name.
	tenantName = "t0"
)

// campaignConfig is a campaign as eval's experiment harnesses configure
// it; eval fills in every other field with its own defaults.
func campaignConfig(build apps.Builder, seed int64, quick bool, targets []string) eval.Config {
	return eval.Options{Seed: seed, Quick: quick, Workers: 1}.Apply(eval.Config{
		Build:   build,
		Targets: targets,
	})
}

// spelledOut returns cfg with every field eval defaults set explicitly, as
// the recomposed campaign reads them. The traced run's byte-identity gate
// against eval.Train also checks that these values still are eval's.
func spelledOut(cfg eval.Config) eval.Config {
	set := func(v *time.Duration, def time.Duration) {
		if *v == 0 {
			*v = def
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.DerivedAll()
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = core.DefaultAlpha
	}
	if cfg.LoadMode == 0 {
		cfg.LoadMode = load.OpenLoop
	}
	if cfg.TrainMultiplier == 0 {
		cfg.TrainMultiplier = 1
	}
	if cfg.TestMultiplier == 0 {
		cfg.TestMultiplier = 1
	}
	set(&cfg.Warmup, 30*time.Second)
	set(&cfg.Settle, 15*time.Second)
	set(&cfg.BaselineDuration, 10*time.Minute)
	set(&cfg.FaultDuration, 10*time.Minute)
	set(&cfg.SampleInterval, telemetry.DefaultSampleInterval)
	set(&cfg.WindowLength, telemetry.DefaultWindowLength)
	set(&cfg.WindowHop, telemetry.DefaultWindowHop)
	if cfg.Rounds == 0 {
		cfg.Rounds = 1
	}
	if cfg.Fault.Type == 0 {
		cfg.Fault = chaos.Unavailable()
	}
	return cfg
}

// tenantInput is the tenant's generated stream: a recorded segment in wire
// form and the service the fault hit.
type tenantInput struct {
	Culprit string
	Segment []map[string][]stream.SampleState
}

// inputs is everything a run serves, generated from the seed during set-up.
// The tenant keeps the training window length but hops once per sample
// interval, so every posted tick completes a hop and yields a verdict.
type inputs struct {
	Train     eval.Config // the tenant model's training campaign
	Model     *core.Model
	ModelJSON []byte
	Tenant    serve.TenantConfig
	Stream    tenantInput
}

// generate builds the inputs: it trains the tenant model on the 512-service
// synth topology and records the tenant's stream segment. It is a pure
// function of the seed.
func generate(ctx context.Context, seed int64) (*inputs, error) {
	build, err := synth.Builder(synth.Config{Services: wideServices, Seed: wideTopology})
	if err != nil {
		return nil, err
	}
	app, err := build(sim.NewEngine(wideTopology))
	if err != nil {
		return nil, err
	}
	var targets []string
	rng := rand.New(rand.NewSource(wideTopology))
	for _, i := range rng.Perm(len(app.FaultTargets))[:wideTargets] {
		targets = append(targets, app.FaultTargets[i])
	}
	cfg := campaignConfig(build, seed, true, targets)

	model, err := eval.Train(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("train tenant model: %w", err)
	}
	var mj bytes.Buffer
	if err := model.WriteJSON(&mj); err != nil {
		return nil, fmt.Errorf("encode model: %w", err)
	}
	// The culprit is a seed-chosen trained target.
	culprit := model.Targets[rand.New(rand.NewSource(seed)).Intn(len(model.Targets))]
	seg, err := record(cfg, seed+7919, culprit)
	if err != nil {
		return nil, err
	}
	return &inputs{
		Train:     cfg,
		Model:     model,
		ModelJSON: mj.Bytes(),
		Tenant: serve.TenantConfig{
			WindowLength: sim.Time(cfg.WindowLength),
			WindowHop:    sim.Time(cfg.SampleInterval),
			Preset:       metrics.SetDerivedAll,
			Window:       detectorWindow,
		},
		Stream: tenantInput{Culprit: culprit, Segment: seg},
	}, nil
}

// record plays one live session: healthyTicks of normal traffic, then the
// culprit's fault for faultyTicks, one wire-form tick per sample interval.
func record(cfg eval.Config, seed int64, culprit string) ([]map[string][]stream.SampleState, error) {
	ls, err := eval.NewLiveSession(cfg, 1, seed)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	out := make([]map[string][]stream.SampleState, 0, segmentTicks)
	for i := 0; i < segmentTicks; i++ {
		if i == healthyTicks {
			if err := ls.Inject(culprit, chaos.Unavailable()); err != nil {
				return nil, fmt.Errorf("record: %w", err)
			}
		}
		samples := ls.Advance(cfg.SampleInterval)
		wire := make(map[string][]stream.SampleState, len(samples))
		for svc, ss := range samples {
			enc := make([]stream.SampleState, len(ss))
			for j, smp := range ss {
				enc[j] = stream.EncodeSample(smp)
			}
			wire[svc] = enc
		}
		out = append(out, wire)
	}
	return out, nil
}

// digest fingerprints the generated inputs, so repeated set-ups can be
// checked to produce identical inputs from one seed.
func (in *inputs) digest() (string, error) {
	blob, err := json.Marshal(in.Stream)
	if err != nil {
		return "", fmt.Errorf("digest inputs: %w", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(append(append([]byte(nil), in.ModelJSON...), blob...))), nil
}

// tick returns the tenant's k-th posted tick: segment tick k mod L, shifted
// later by one segment length per completed replay.
func (t *tenantInput) tick(k int, interval time.Duration) map[string][]stream.SampleState {
	base := t.Segment[k%len(t.Segment)]
	shift := sim.Time(k/len(t.Segment)) * sim.Time(len(t.Segment)) * sim.Time(interval)
	if shift == 0 {
		return base
	}
	out := make(map[string][]stream.SampleState, len(base))
	for svc, ss := range base {
		moved := make([]stream.SampleState, len(ss))
		for i, s := range ss {
			s.At += shift
			moved[i] = s
		}
		out[svc] = moved
	}
	return out
}

// body encodes ticks as one ingest request body.
func body(ticks ...map[string][]stream.SampleState) ([]byte, error) {
	blob, err := json.Marshal(map[string]any{"ticks": ticks})
	if err != nil {
		return nil, fmt.Errorf("encode ingest body: %w", err)
	}
	return blob, nil
}

// decodeTick converts a wire tick to the samples a pipeline consumes.
func decodeTick(wire map[string][]stream.SampleState) map[string][]telemetry.Sample {
	tick := make(map[string][]telemetry.Sample, len(wire))
	for svc, enc := range wire {
		ss := make([]telemetry.Sample, len(enc))
		for i, one := range enc {
			ss[i] = one.Sample()
		}
		tick[svc] = ss
	}
	return tick
}

// newPipeline builds the in-process reference pipeline for a tenant config,
// with the options serve derives from the same config.
func newPipeline(in *inputs) (*stream.Pipeline, error) {
	set, err := metrics.Preset(in.Tenant.Preset)
	if err != nil {
		return nil, err
	}
	return stream.NewPipeline(in.Model,
		stream.WithMetricSet(set),
		stream.WithGeometry(time.Duration(in.Tenant.WindowLength), time.Duration(in.Tenant.WindowHop)),
		stream.WithWindow(in.Tenant.Window),
	)
}
