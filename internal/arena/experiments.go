package arena

import (
	"context"
	"fmt"
	"time"

	"causalfl/internal/apps/causalbench"
	"causalfl/internal/baselines"
	"causalfl/internal/clock"
	"causalfl/internal/eval"
	"causalfl/internal/load"
	"causalfl/internal/metrics"
	"causalfl/internal/stats"
)

// This file hosts the paper experiments that compare techniques (here,
// configurations of the paper's own method) trained and tested on one shared
// collection: Table II and the nonstationary-load extension. Both grade
// through Grade, so they score exactly like the arena's cells.

// collectAndGrade collects one training campaign under trainCfg and one test
// campaign under testCfg, then grades every technique on them. Timings are
// not reported, so the clock is a throwaway fake.
func collectAndGrade(ctx context.Context, trainCfg, testCfg eval.Config, techs []baselines.Technique) ([]Row, error) {
	data, err := eval.CollectTraining(ctx, trainCfg)
	if err != nil {
		return nil, err
	}
	cases, err := eval.CollectTests(ctx, testCfg)
	if err != nil {
		return nil, err
	}
	return Grade(ctx, &clock.Fake{}, techs, data, cases)
}

// TableIIRow is one cell group of Table II: a metric-set preset evaluated on
// one application.
type TableIIRow struct {
	App             string
	Preset          string
	Accuracy        float64
	Informativeness float64
}

// TableIIResult reproduces Table II: the informativeness (and, additionally,
// accuracy) of single-metric and all-metric sets, raw versus derived, with
// training at 1x load and testing at 4x.
type TableIIResult struct {
	Rows []TableIIRow
}

// String renders the result grouped like the paper's Table II columns.
func (r *TableIIResult) String() string {
	t := eval.Table{
		Title:  "Table II: metric sets under 4x test load (trained at 1x)",
		Header: []string{"app", "metric set", "accuracy", "informativeness"},
		Widths: []int{14, 13, 9},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.App, row.Preset, fmt.Sprintf("%.2f", row.Accuracy), fmt.Sprintf("%.2f", row.Informativeness)})
	}
	return t.String()
}

// tableIIPresets are the Table II columns, in the paper's order.
func tableIIPresets() []string {
	return []string{
		metrics.SetRawMsg, metrics.SetRawCPU, metrics.SetRawAll,
		metrics.SetDerivedMsg, metrics.SetDerivedCPU, metrics.SetDerivedAll,
	}
}

// RunTableII regenerates Table II. All presets share one collection pass per
// application (the union metric set is collected once and projected), so the
// comparison isolates the metric choice.
func RunTableII(ctx context.Context, o eval.Options) (*TableIIResult, error) {
	union := append(metrics.RawAll(), metrics.DerivedAll()...)
	result := &TableIIResult{}
	for _, app := range PaperApps() {
		cfg := o.Apply(eval.Config{
			Build:          app.Build,
			Metrics:        union,
			TestMultiplier: 4,
		})
		var techniques []baselines.Technique
		for _, preset := range tableIIPresets() {
			set, err := metrics.Preset(preset)
			if err != nil {
				return nil, err
			}
			techniques = append(techniques, &baselines.Paper{MetricNames: metrics.Names(set)})
		}
		rows, err := collectAndGrade(ctx, cfg, cfg, techniques)
		if err != nil {
			return nil, fmt.Errorf("arena: table II %s: %w", app.Name, err)
		}
		for i, preset := range tableIIPresets() {
			result.Rows = append(result.Rows, TableIIRow{
				App:             app.Name,
				Preset:          preset,
				Accuracy:        rows[i].Contain,
				Informativeness: rows[i].MeanInformativeness,
			})
		}
	}
	return result, nil
}

// NonstationaryRow scores one metric-set / decision-rule combination under
// nonstationary production load.
type NonstationaryRow struct {
	Preset          string
	Test            string
	Accuracy        float64
	Informativeness float64
}

// NonstationaryResult reports the diurnal-load extension: the model is
// trained under steady 1x load, but production traffic oscillates ±60%
// around the same mean. Raw metrics see the oscillation as anomalies
// everywhere; the derived metrics were built to be invariant to exactly
// this (§III-C generalized from a level shift to a drifting level).
type NonstationaryResult struct {
	Amplitude float64
	Rows      []NonstationaryRow
}

// String renders the result.
func (r *NonstationaryResult) String() string {
	t := eval.Table{
		Title:  fmt.Sprintf("Nonstationary-load extension (diurnal ±%.0f%% production load, steady training)", r.Amplitude*100),
		Header: []string{"metric set", "test", "accuracy", "informativeness"},
		Widths: []int{13, 12, 9},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Preset, row.Test, fmt.Sprintf("%.2f", row.Accuracy), fmt.Sprintf("%.2f", row.Informativeness)})
	}
	return t.String()
}

// RunNonstationaryExtension trains steadily and tests under diurnal load.
func RunNonstationaryExtension(ctx context.Context, o eval.Options) (*NonstationaryResult, error) {
	const amplitude = 0.6
	union := append(metrics.RawAll(), metrics.DerivedAll()...)
	trainCfg := o.Apply(eval.Config{Build: causalbench.Build, Metrics: union})
	testCfg := trainCfg
	// One full oscillation per collection period; quick runs use a
	// proportionally shorter period.
	period := 5 * time.Minute
	if o.Quick {
		period = 75 * time.Second
	}
	testCfg.Diurnal = &load.DiurnalProfile{Period: period, Amplitude: amplitude}

	// 2x2 design: {raw, derived} metric sets x {guarded, raw} KS tests.
	// Mean-preserving oscillation is absorbed by the effect-size guard
	// even on raw metrics; without the guard only the derived ratios,
	// which are pointwise load-invariant, survive.
	type cell struct {
		preset string
		test   stats.TwoSampleTest
		label  string
	}
	cells := []cell{
		{metrics.SetRawAll, stats.GuardedTest{Inner: stats.KSTest{}}, "guarded-ks"},
		{metrics.SetRawAll, stats.KSTest{}, "raw-ks"},
		{metrics.SetDerivedAll, stats.GuardedTest{Inner: stats.KSTest{}}, "guarded-ks"},
		{metrics.SetDerivedAll, stats.KSTest{}, "raw-ks"},
	}
	var techniques []baselines.Technique
	for _, c := range cells {
		set, err := metrics.Preset(c.preset)
		if err != nil {
			return nil, err
		}
		techniques = append(techniques, &baselines.Paper{
			MetricNames: metrics.Names(set),
			Test:        c.test,
			Label:       c.preset + "/" + c.label,
		})
	}
	rows, err := collectAndGrade(ctx, trainCfg, testCfg, techniques)
	if err != nil {
		return nil, fmt.Errorf("arena: nonstationary extension: %w", err)
	}
	result := &NonstationaryResult{Amplitude: amplitude}
	for i, c := range cells {
		result.Rows = append(result.Rows, NonstationaryRow{
			Preset:          c.preset,
			Test:            c.label,
			Accuracy:        rows[i].Contain,
			Informativeness: rows[i].MeanInformativeness,
		})
	}
	return result, nil
}
