package eval

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"causalfl/internal/apps/causalbench"
	"causalfl/internal/metrics"
)

func TestRunFaultTypeExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	result, err := RunFaultTypeExtension(context.Background(), Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Arms) != 4 {
		t.Fatalf("got %d rows, want 4", len(result.Arms))
	}
	control := result.Arm("http-service-unavailable", "http-service-unavailable").Report
	if control.Accuracy < 0.85 {
		t.Errorf("control accuracy %.2f too low", control.Accuracy)
	}
	errRate := result.Arm("http-service-unavailable", "error-rate").Report
	if errRate.Accuracy < 0.75 {
		t.Errorf("error-rate faults should transfer from unavailable training, got %.2f", errRate.Accuracy)
	}
	crossLatency := result.Arm("http-service-unavailable", "latency").Report
	matchedLatency := result.Arm("latency", "latency").Report
	// The experiment's finding: latency propagates along a different
	// world, so matched training must beat cross-type transfer clearly.
	if matchedLatency.Accuracy < crossLatency.Accuracy+0.25 {
		t.Errorf("matched latency training (%.2f) should clearly beat cross-type (%.2f)",
			matchedLatency.Accuracy, crossLatency.Accuracy)
	}
	if !strings.Contains(result.String(), "latency") {
		t.Error("rendering incomplete")
	}
}

func TestRunMultiFaultExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	result, err := RunMultiFaultExtension(context.Background(), Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if result.Pairs == 0 {
		t.Fatal("no pairs evaluated")
	}
	if result.AtLeastOne < result.BothInTop2 {
		t.Fatal("inconsistent counters")
	}
	// The greedy explain-away localizer should recover most pairs fully.
	if frac := float64(result.BothInTop2) / float64(result.Pairs); frac < 0.75 {
		t.Errorf("explain-away recovered only %.2f of fault pairs:\n%s", frac, result)
	}
}

func TestRunTraceComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	result, err := RunTraceComparison(context.Background(), Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(result.Rows))
	}
	var gRow *TraceComparisonRow
	for i := range result.Rows {
		if result.Rows[i].Target == "G" {
			gRow = &result.Rows[i]
		}
	}
	if gRow == nil {
		t.Fatal("no row for the omission fault G")
	}
	// The paper's argument: tracing cannot see the omission fault, the
	// interventional method can.
	if gRow.TraceCorrect {
		t.Errorf("trace RCA should fail on the omission fault G, got candidates %v", gRow.TraceCandidates)
	}
	if !gRow.OurCorrect {
		t.Errorf("causalfl should localize the omission fault G, got %v", gRow.OurCandidates)
	}
	if result.OurAccuracy <= result.TraceAccuracy {
		t.Errorf("causalfl (%.2f) should beat trace RCA (%.2f) overall",
			result.OurAccuracy, result.TraceAccuracy)
	}
}

func TestSweepSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	cfg := Options{Quick: true}.Apply(Config{
		Build:   causalbench.Build,
		Metrics: metrics.DerivedAll(),
		Targets: []string{"B", "D"},
	})
	result, err := SweepSeeds(context.Background(), cfg, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Accuracies) != 3 {
		t.Fatalf("swept %d seeds, want 3", len(result.Accuracies))
	}
	if result.MeanAccuracy < 0.5 {
		t.Errorf("sweep mean accuracy %.2f suspiciously low", result.MeanAccuracy)
	}
	if result.StdAccuracy < 0 || result.StdInformative < 0 {
		t.Error("negative standard deviation")
	}
	if !strings.Contains(result.String(), "Seed sweep") {
		t.Error("rendering incomplete")
	}
}

func TestRunScalabilityExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	result, err := RunScalabilityExtension(context.Background(), Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Arms) != len(ScalabilitySizes) {
		t.Fatalf("got %d rows, want %d", len(result.Arms), len(ScalabilitySizes))
	}
	for i, arm := range result.Arms {
		services, targets := ScalabilitySizes[i], len(arm.Model.Targets)
		if arm.Report.Accuracy < 0.8 {
			t.Errorf("accuracy %.2f at %d services; the method should scale", arm.Report.Accuracy, services)
		}
		if targets < services/2 {
			t.Errorf("only %d of %d services injectable", targets, services)
		}
	}
	// Cost grows with size (linearly in targets); the largest sweep must
	// cost more than the smallest.
	first, last := result.Arms[0], result.Arms[len(result.Arms)-1]
	if last.TrainWall <= first.TrainWall {
		t.Errorf("training cost did not grow with size: %v -> %v", first.TrainWall, last.TrainWall)
	}
	if !strings.Contains(result.String(), "services") {
		t.Error("rendering incomplete")
	}
}

func TestRunContaminationExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	result, err := RunContaminationExtension(context.Background(), Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(result.Title, "hidden fault in C ") {
		t.Fatal("no contaminant recorded")
	}
	clean, dirty := result.Arm("clean baseline:").Report, result.Arm("dirty  baseline:").Report
	if clean.Accuracy < 0.85 {
		t.Errorf("control run accuracy %.2f too low", clean.Accuracy)
	}
	// The contaminated model must not silently look as good as the clean
	// one on both measures — the experiment exists to show the cost of a
	// dirty baseline.
	if dirty.Accuracy >= clean.Accuracy &&
		dirty.MeanInformativeness >= clean.MeanInformativeness {
		t.Errorf("contamination cost nothing: clean %.2f/%.2f vs dirty %.2f/%.2f",
			clean.Accuracy, clean.MeanInformativeness,
			dirty.Accuracy, dirty.MeanInformativeness)
	}
	if !strings.Contains(result.String(), "hidden fault") {
		t.Error("rendering incomplete")
	}
}

func TestRunInterferenceExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	result, err := RunInterferenceExtension(context.Background(), Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Rows) != 4 {
		t.Fatalf("got %d rows, want the 2x2 design", len(result.Rows))
	}
	key := func(preset string, interfered bool) string {
		return fmt.Sprintf("%s/%v", preset, interfered)
	}
	rows := make(map[string]InterferenceRow)
	for _, row := range result.Rows {
		rows[key(row.Preset, row.Interfered)] = row
	}
	// Healthy controls must never alarm.
	for _, preset := range []string{metrics.SetDerivedAll, metrics.SetDerivedExt} {
		if rows[key(preset, false)].AlarmRaised {
			t.Errorf("%s alarmed on the healthy control: %v", preset, rows[key(preset, false)].Candidates)
		}
	}
	if rows[key(metrics.SetDerivedAll, true)].AlarmRaised {
		t.Errorf("the paper's metric set false-alarmed on pure interference: blamed %v",
			rows[key(metrics.SetDerivedAll, true)].Candidates)
	}
	if !rows[key(metrics.SetDerivedExt, true)].AlarmRaised {
		t.Error("the occupancy-extended set should be sensitive to interference (that is its tradeoff)")
	}
	if !strings.Contains(result.String(), "batch job") {
		t.Error("rendering incomplete")
	}
}

func TestRunBudgetExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	result, err := RunBudgetExtension(context.Background(), Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Arms) != 4 {
		t.Fatalf("got %d rows", len(result.Arms))
	}
	// Accuracy must be (weakly) monotone in the budget and track k/n. Every
	// arm tests all injectable services, one case each.
	prev := -1.0
	for _, arm := range result.Arms {
		trained, total, accuracy := len(arm.Model.Targets), len(arm.Report.Outcomes), arm.Report.Accuracy
		if accuracy < prev-0.13 {
			t.Errorf("accuracy regressed with larger budget: %.2f after %.2f", accuracy, prev)
		}
		ceiling := float64(trained) / float64(total)
		if accuracy > ceiling+1e-9 {
			t.Errorf("k=%d accuracy %.2f exceeds the %.2f budget ceiling (untrained faults cannot be named)",
				trained, accuracy, ceiling)
		}
		prev = accuracy
	}
	full := result.Arms[len(result.Arms)-1]
	if len(full.Model.Targets) != len(full.Report.Outcomes) || full.Report.Accuracy < 0.85 {
		t.Errorf("full budget row: %s", full.Report)
	}
}

func TestSweepSeedsValidation(t *testing.T) {
	if _, err := SweepSeeds(context.Background(), Config{Build: causalbench.Build}, nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Errorf("mean = %v, want 5", mean)
	}
	if std < 1.99 || std > 2.01 {
		t.Errorf("population std = %v, want 2", std)
	}
}
