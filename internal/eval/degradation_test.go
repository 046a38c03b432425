package eval

import (
	"context"
	"math"
	"strings"
	"testing"

	"causalfl/internal/apps/causalbench"
	"causalfl/internal/metrics"
	"causalfl/internal/telemetry"
)

func TestDegradedTelemetryValidation(t *testing.T) {
	bad := []DegradedTelemetry{
		{ScrapeLoss: -0.1},
		{ScrapeLoss: 1.1},
		{Corruption: -1},
		{Corruption: 2},
		{MinWindowCoverage: 1.5},
		{ScrapeLoss: math.NaN()},
		{Corruption: math.NaN()},
		{MinWindowCoverage: math.NaN()},
	}
	for i, d := range bad {
		cfg := Config{Build: causalbench.Build, Degraded: &d}
		if _, err := cfg.withDefaults(); err == nil {
			t.Errorf("case %d: accepted %+v", i, d)
		}
	}
	cfg := Config{Build: causalbench.Build, Degraded: &DegradedTelemetry{ScrapeLoss: 0.2}}
	if _, err := cfg.withDefaults(); err != nil {
		t.Fatalf("rejected valid degradation config: %v", err)
	}
}

func TestRunDegradationSweepRejectsBadFractions(t *testing.T) {
	if _, err := RunDegradationSweep(context.Background(), Options{Quick: true}, causalbench.Build, causalbench.Name, []float64{-0.1}); err == nil {
		t.Error("accepted negative loss fraction")
	}
	if _, err := RunDegradationSweep(context.Background(), Options{Quick: true}, causalbench.Build, causalbench.Name, []float64{1.5}); err == nil {
		t.Error("accepted loss fraction above 1")
	}
	if _, err := RunDegradationSweep(context.Background(), Options{Quick: true}, causalbench.Build, causalbench.Name, []float64{math.NaN()}); err == nil {
		t.Error("accepted NaN loss fraction")
	}
}

// TestZeroLossReproducesCleanEvaluation is the sweep's anchor criterion: the
// degraded pipeline at 0% scrape loss must reproduce the clean evaluation
// exactly — same seeds, same localizations, same accuracy.
func TestZeroLossReproducesCleanEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	cfg := quickCfg()
	cfg.Targets = []string{"B", "D"} // small sweep for speed
	model, err := Train(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Evaluate(context.Background(), cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	degradedCfg := cfg
	degradedCfg.Degraded = &DegradedTelemetry{ScrapeLoss: 0, Retry: telemetry.DefaultRetryPolicy()}
	degraded, err := Evaluate(context.Background(), degradedCfg, model)
	if err != nil {
		t.Fatal(err)
	}
	if clean.String() != degraded.String() {
		t.Fatalf("0%% loss through the degraded pipeline diverged from the clean run:\n%s\nvs\n%s", clean, degraded)
	}
	for _, out := range degraded.Outcomes {
		if out.Coverage != 1 {
			t.Errorf("0%% loss outcome for %s has coverage %v, want 1", out.Target, out.Coverage)
		}
		if out.Abstained {
			t.Errorf("0%% loss outcome for %s abstained", out.Target)
		}
	}
}

// TestLossyCampaignCompletes checks the ≤20%-loss robustness criterion: the
// campaign must finish every test case without error, whatever the
// localization quality.
func TestLossyCampaignCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	cfg := quickCfg()
	cfg.Targets = []string{"B", "D"}
	cfg.Degraded = &DegradedTelemetry{
		ScrapeLoss: 0.2,
		Corruption: 0.05,
		Retry:      telemetry.DefaultRetryPolicy(),
		Repair:     metrics.DefaultRepairPolicy(),
	}
	model, err := Train(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Evaluate(context.Background(), cfg, model)
	if err != nil {
		t.Fatalf("20%% scrape loss + 5%% corruption broke the campaign: %v", err)
	}
	if len(report.Outcomes) != len(cfg.Targets) {
		t.Fatalf("got %d outcomes, want %d — lossy campaign dropped test cases", len(report.Outcomes), len(cfg.Targets))
	}
	for _, out := range report.Outcomes {
		if out.Coverage < 0 || out.Coverage > 1 {
			t.Errorf("outcome for %s has coverage %v outside [0,1]", out.Target, out.Coverage)
		}
	}
}

func TestRunDegradationSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	result, err := RunDegradationSweep(context.Background(), Options{Seed: 7, Quick: true}, causalbench.Build, causalbench.Name, []float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Arms) != 2 {
		t.Fatalf("got %d points, want 2", len(result.Arms))
	}
	if result.Arms[0].Labels[0] != "0%" || result.Arms[1].Labels[0] != "30%" {
		t.Fatalf("points out of order:\n%s", result)
	}
	p0, p30 := result.Arms[0].Report, result.Arms[1].Report
	// The clean anchor point: full coverage, no abstentions, and the same
	// accuracy the plain campaign achieves on this app.
	if p0.MeanCoverage() != 1 || p0.Abstentions() != 0 {
		t.Fatalf("0%% point not clean: coverage %v, %d abstentions", p0.MeanCoverage(), p0.Abstentions())
	}
	if p0.Accuracy < 0.75 {
		t.Fatalf("0%% point accuracy %.2f too low (degraded pipeline broke the clean path?)", p0.Accuracy)
	}
	// At 30% loss the campaign still runs to completion on every target.
	if len(p30.Outcomes) != len(p0.Outcomes) || len(p30.Outcomes) == 0 {
		t.Fatalf("lossy point dropped campaigns: %d vs %d", len(p30.Outcomes), len(p0.Outcomes))
	}
	if p30.MeanCoverage() > p0.MeanCoverage() {
		t.Errorf("coverage rose under loss: %v", p30.MeanCoverage())
	}
	out := result.String()
	for _, want := range []string{"causalbench", "0%", "30%", "accuracy"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep rendering missing %q:\n%s", want, out)
		}
	}
}
