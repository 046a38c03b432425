package eval

import (
	"context"
	"fmt"
	"strings"
	"time"

	"causalfl/internal/apps"
	"causalfl/internal/apps/causalbench"
	"causalfl/internal/apps/patterns"
	"causalfl/internal/apps/robotshop"
	"causalfl/internal/clock"
	"causalfl/internal/load"
	"causalfl/internal/metrics"
	"causalfl/internal/stats"
)

// Options tunes the experiment harnesses that regenerate the paper's tables
// and figures.
type Options struct {
	// Seed drives all randomness (zero means 42).
	Seed int64
	// Quick shortens collection windows (2.5-minute periods with 30s/15s
	// hopping windows instead of the paper's 10-minute periods with
	// 60s/30s windows), cutting runtime roughly fourfold at slightly
	// reduced statistical power. Benchmarks use it; headline runs do not.
	Quick bool
	// Clock supplies the wall-clock readings behind host-cost columns
	// (scalability train/eval walls, report section timings). Nil means the
	// host clock; tests inject a clock.Fake for deterministic timings.
	Clock clock.Clock
	// Workers bounds every worker pool the experiments spin up (campaign
	// rounds, per-case localization, seed sweeps, degradation arms). Zero
	// selects GOMAXPROCS; one forces the serial reference path. Results are
	// identical at every setting.
	Workers int
}

// WallClock returns the configured clock, defaulting to the host clock.
func (o Options) WallClock() clock.Clock {
	if o.Clock != nil {
		return o.Clock
	}
	return clock.Wall
}

// EffectiveSeed is the seed the experiments run with: Seed, or 42 when it
// is zero.
func (o Options) EffectiveSeed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// Apply merges the options into a campaign config, returning the config the
// experiment harnesses would run with.
func (o Options) Apply(cfg Config) Config {
	cfg.Seed = o.EffectiveSeed()
	cfg.Workers = o.Workers
	if o.Quick {
		cfg.BaselineDuration = 150 * time.Second
		cfg.FaultDuration = 150 * time.Second
		cfg.WindowLength = 30 * time.Second
		cfg.WindowHop = 15 * time.Second
		cfg.SampleInterval = 5 * time.Second
	}
	return cfg
}

// benchmarkApps lists the two evaluation applications of the paper.
func benchmarkApps() []struct {
	Name  string
	Build apps.Builder
} {
	return []struct {
		Name  string
		Build apps.Builder
	}{
		{causalbench.Name, causalbench.Build},
		{robotshop.Name, robotshop.Build},
	}
}

// RunTableI regenerates Table I: accuracy and informativeness on
// CausalBench and Robot-shop with the model trained at 1x load and tested at
// 1x and 4x, using the derived metric set.
func RunTableI(ctx context.Context, o Options) (*ExperimentResult, error) {
	e := Experiment{
		Title:  "Table I: fault localization accuracy and informativeness",
		Header: []string{"app", "load", "accuracy", "informativeness"},
		Widths: []int{14, 6, 9},
		Cells:  accuracyCells,
	}
	for _, app := range benchmarkApps() {
		trial := Trial{Train: o.Apply(Config{Build: app.Build, Metrics: metrics.DerivedAll()})}
		for _, mult := range []float64{1, 4} {
			test := trial.Train
			test.TestMultiplier = mult
			trial.Arms = append(trial.Arms, Arm{Labels: []string{app.Name, fmt.Sprintf("%gx", mult)}, Test: test})
		}
		e.Trials = append(e.Trials, trial)
	}
	return e.Run(ctx, o)
}

// Fig1Result reproduces Fig. 1: the causal sets learned on the two
// communication patterns under the #logs and #requests metrics, showing that
// the learned world depends on the observed metric.
type Fig1Result struct {
	// Sets maps pattern -> metric -> injected target -> causal set.
	Sets map[string]map[string]map[string][]string
}

// fig1Metrics returns the two metrics of the figure: count of (error) logs
// and count of API requests received.
func fig1Metrics() []metrics.Metric {
	return []metrics.Metric{metrics.MsgRate, metrics.ReqRate}
}

// String renders the learned worlds per pattern and metric.
func (r *Fig1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1: causal relations depend on observed metrics & code\n")
	for _, pattern := range []string{patterns.Pattern1Name, patterns.Pattern2Name} {
		byMetric, ok := r.Sets[pattern]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s:\n", pattern)
		for _, metric := range []string{metrics.MsgRate.Name, metrics.ReqRate.Name} {
			fmt.Fprintf(&b, "  metric %s:\n", metric)
			byTarget := byMetric[metric]
			for target, set := range byTarget {
				fmt.Fprintf(&b, "    C(%s) = %s\n", target, strings.Join(set, ","))
			}
		}
	}
	return b.String()
}

// RunFig1 learns causal worlds on pattern 1 (stateless chain) and pattern 2
// (stateful omission) with the figure's two metrics.
func RunFig1(ctx context.Context, o Options) (*Fig1Result, error) {
	result := &Fig1Result{Sets: make(map[string]map[string]map[string][]string, 2)}
	cases := []struct {
		name    string
		build   apps.Builder
		targets []string
	}{
		{patterns.Pattern1Name, patterns.BuildPattern1, []string{"B"}},
		{patterns.Pattern2Name, patterns.BuildPattern2, []string{"D"}},
	}
	for _, c := range cases {
		cfg := o.Apply(Config{Build: c.build, Metrics: fig1Metrics(), Targets: c.targets})
		model, err := Train(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: fig1 %s: %w", c.name, err)
		}
		byMetric := make(map[string]map[string][]string, len(model.Metrics))
		for _, metric := range model.Metrics {
			byTarget := make(map[string][]string, len(model.Targets))
			for _, target := range model.Targets {
				set, err := model.CausalSet(metric, target)
				if err != nil {
					return nil, err
				}
				byTarget[target] = set
			}
			byMetric[metric] = byTarget
		}
		result.Sets[c.name] = byMetric
	}
	return result, nil
}

// Fig2Result reproduces Fig. 2: the load confounder. Under closed-loop load
// on the confounder topology, failing node C increases the request rate
// observed at node I (and symmetrically failing I increases the rate at C),
// because node A's shared queue drains faster when one branch fails fast.
type Fig2Result struct {
	// HealthyI and FaultCI summarize requests/window at node I with the
	// system healthy versus with node C faulted.
	HealthyI, FaultCI stats.Summary
	// HealthyC and FaultIC summarize requests/window at node C with the
	// system healthy versus with node I faulted.
	HealthyC, FaultIC stats.Summary
	// PValueI and PValueC are the KS p-values of the two comparisons.
	PValueI, PValueC float64
}

// String renders the boxplot-style five-number summaries.
func (r *Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2: intervention changes the load distribution (closed-loop users)\n")
	row := func(label string, s stats.Summary) {
		fmt.Fprintf(&b, "%-24s min=%-7.0f q1=%-7.0f med=%-7.0f q3=%-7.0f max=%-7.0f mean=%.1f\n",
			label, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
	}
	row("req@I healthy", r.HealthyI)
	row("req@I with C faulted", r.FaultCI)
	fmt.Fprintf(&b, "  KS p-value: %.4f (reject => C causally influences I via the load confounder)\n", r.PValueI)
	row("req@C healthy", r.HealthyC)
	row("req@C with I faulted", r.FaultIC)
	fmt.Fprintf(&b, "  KS p-value: %.4f\n", r.PValueC)
	return b.String()
}

// RunFig2 measures the confounder effect with closed-loop virtual users.
func RunFig2(ctx context.Context, o Options) (*Fig2Result, error) {
	cfg := o.Apply(Config{
		Build:    patterns.BuildConfounder,
		Metrics:  []metrics.Metric{metrics.ReqRate},
		LoadMode: load.ClosedLoop,
		Users:    10,
	})
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s, err := newSession(cfg, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	healthy, err := s.collect(cfg.BaselineDuration)
	if err != nil {
		return nil, fmt.Errorf("eval: fig2 healthy: %w", err)
	}
	faultC, err := s.collectWithFault("C", cfg.FaultDuration)
	if err != nil {
		return nil, fmt.Errorf("eval: fig2 fault C: %w", err)
	}
	faultI, err := s.collectWithFault("I", cfg.FaultDuration)
	if err != nil {
		return nil, fmt.Errorf("eval: fig2 fault I: %w", err)
	}

	result := &Fig2Result{}
	var ks stats.KSTest
	reqI, err := healthy.Series(metrics.ReqRate.Name, "I")
	if err != nil {
		return nil, err
	}
	reqIFault, err := faultC.Series(metrics.ReqRate.Name, "I")
	if err != nil {
		return nil, err
	}
	if result.HealthyI, err = stats.Summarize(reqI); err != nil {
		return nil, err
	}
	if result.FaultCI, err = stats.Summarize(reqIFault); err != nil {
		return nil, err
	}
	if result.PValueI, err = ks.PValue(reqIFault, reqI); err != nil {
		return nil, err
	}

	reqC, err := healthy.Series(metrics.ReqRate.Name, "C")
	if err != nil {
		return nil, err
	}
	reqCFault, err := faultI.Series(metrics.ReqRate.Name, "C")
	if err != nil {
		return nil, err
	}
	if result.HealthyC, err = stats.Summarize(reqC); err != nil {
		return nil, err
	}
	if result.FaultIC, err = stats.Summarize(reqCFault); err != nil {
		return nil, err
	}
	if result.PValueC, err = ks.PValue(reqCFault, reqC); err != nil {
		return nil, err
	}
	return result, nil
}

// LoggingDisciplineResult reproduces §III-B's metric-sufficiency argument as
// an experiment: the causal world a metric sees depends on developers'
// logging choices. With node E's "I am okay!" heartbeat enabled, the msg-rate
// world of a fault on B contains E (the heartbeat disappears — an omission
// signal); with logging disabled, the same physical fault produces a smaller
// world and the edge vanishes from that metric entirely.
type LoggingDisciplineResult struct {
	// WithLogging is C(B, msg rate) when E logs.
	WithLogging []string
	// WithoutLogging is C(B, msg rate) when E is silent.
	WithoutLogging []string
}

// String renders the two worlds.
func (r *LoggingDisciplineResult) String() string {
	return fmt.Sprintf("§III-B logging discipline: C(B, msg rate)\n"+
		"  E logging enabled : {%s}\n"+
		"  E logging disabled: {%s}\n",
		strings.Join(r.WithLogging, ", "), strings.Join(r.WithoutLogging, ", "))
}

// RunLoggingDiscipline learns the msg-rate world of a fault on B with E's
// logging on and off.
func RunLoggingDiscipline(ctx context.Context, o Options) (*LoggingDisciplineResult, error) {
	learn := func(build apps.Builder) ([]string, error) {
		cfg := o.Apply(Config{
			Build:   build,
			Metrics: []metrics.Metric{metrics.MsgRate},
			Targets: []string{"B"},
		})
		model, err := Train(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return model.CausalSet(metrics.MsgRate.Name, "B")
	}
	loud, err := learn(causalbench.Build)
	if err != nil {
		return nil, fmt.Errorf("eval: logging discipline (enabled): %w", err)
	}
	quiet, err := learn(causalbench.BuildQuiet)
	if err != nil {
		return nil, fmt.Errorf("eval: logging discipline (disabled): %w", err)
	}
	return &LoggingDisciplineResult{WithLogging: loud, WithoutLogging: quiet}, nil
}

// CausalSetsExampleResult reproduces the §VI-B example: the causal sets for
// an intervention on CausalBench node B differ between the msg-rate world
// (response-path error logs plus E's omitted info logs: {A, B, E}) and the
// CPU world (request-path starvation: {B, C, E}).
type CausalSetsExampleResult struct {
	MsgRateSet []string
	CPUSet     []string
}

// String renders the two worlds.
func (r *CausalSetsExampleResult) String() string {
	return fmt.Sprintf("§VI-B example: intervention on CausalBench node B\n"+
		"  C(B, msg rate) = {%s}   (paper: {B, A, E})\n"+
		"  C(B, cpu)      = {%s}   (paper: {B, C, E})\n",
		strings.Join(r.MsgRateSet, ", "), strings.Join(r.CPUSet, ", "))
}

// RunCausalSetsExample learns the two §VI-B worlds.
func RunCausalSetsExample(ctx context.Context, o Options) (*CausalSetsExampleResult, error) {
	cfg := o.Apply(Config{
		Build:   causalbench.Build,
		Metrics: []metrics.Metric{metrics.MsgRate, metrics.CPU},
		Targets: []string{"B"},
	})
	model, err := Train(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: causal sets example: %w", err)
	}
	msg, err := model.CausalSet(metrics.MsgRate.Name, "B")
	if err != nil {
		return nil, err
	}
	cpu, err := model.CausalSet(metrics.CPU.Name, "B")
	if err != nil {
		return nil, err
	}
	return &CausalSetsExampleResult{MsgRateSet: msg, CPUSet: cpu}, nil
}
