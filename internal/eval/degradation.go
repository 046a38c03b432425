package eval

import (
	"context"
	"fmt"

	"causalfl/internal/apps"
	"causalfl/internal/metrics"
	"causalfl/internal/telemetry"
)

// DefaultLossFractions is the sweep grid: clean through half the scrapes
// gone.
func DefaultLossFractions() []float64 {
	return []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
}

// RunDegradationSweep is the accuracy-vs-scrape-loss curve for one
// application, quantifying the graceful-degradation claim next to the
// Tables I–II reproduction. It trains one clean model, then evaluates it
// with the test campaign's telemetry degraded at each loss fraction: lossy
// scrapes with retrying collection, coverage-aware windows, and snapshot
// repair. Training stays clean so the sweep isolates what degraded
// *production* telemetry costs. The 0-loss arm runs through the degraded
// pipeline too; it reproduces the clean evaluation exactly (same seeds, same
// localizations), which anchors the curve. Arms are labelled "0%", "5%", ….
func RunDegradationSweep(ctx context.Context, o Options, build apps.Builder, appName string, fractions []float64) (*ExperimentResult, error) {
	if len(fractions) == 0 {
		fractions = DefaultLossFractions()
	}
	trial := Trial{Train: o.Apply(Config{Build: build, Metrics: metrics.DerivedAll()})}
	for _, f := range fractions {
		if !(f >= 0 && f <= 1) {
			return nil, fmt.Errorf("eval: degradation sweep: loss fraction %v outside [0,1]", f)
		}
		test := trial.Train
		test.Degraded = &DegradedTelemetry{ScrapeLoss: f, Retry: telemetry.DefaultRetryPolicy()}
		trial.Arms = append(trial.Arms, Arm{Labels: []string{fmt.Sprintf("%.0f%%", f*100)}, Test: test})
	}
	return Experiment{
		Title:  fmt.Sprintf("Degradation sweep on %s: localization vs scrape loss (trained clean)", appName),
		Header: []string{"loss", "accuracy", "info", "coverage", "abstained"},
		Widths: []int{7, 9, 6, 9},
		Trials: []Trial{trial},
		Cells: func(a ArmResult) []string {
			r := a.Report
			return append(accuracyCells(a), fmt.Sprintf("%.2f", r.MeanCoverage()), fmt.Sprintf("%d/%d", r.Abstentions(), len(r.Outcomes)))
		},
	}.Run(ctx, o)
}
