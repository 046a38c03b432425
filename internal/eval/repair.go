package eval

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"causalfl/internal/apps"
	"causalfl/internal/apps/causalbench"
	"causalfl/internal/apps/robotshop"
	"causalfl/internal/chaos"
	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/repair"
)

// This file wires counterfactual repair into the evaluation: after the
// localizer names its suspects, the repair search replays the faulty window
// under candidate interventions ranked by that verdict and reports the
// minimal SLO-restoring fix set. Running it inside `eval` makes repair
// quality a measured, regression-visible dimension next to localization
// accuracy: if a change to the simulator, the search or the SLO predicate
// stops the true fix from topping the ranking, the report section moves.

// RepairRow is one fault scenario's repair outcome.
type RepairRow struct {
	App    string
	Target string
	// VerdictTop is the localizer's first-ranked suspect.
	VerdictTop string
	// FixSet renders the top-ranked minimal fix set.
	FixSet string
	// Size is the fix-set cardinality.
	Size int
	// Score is the counterfactual restoration score of the fix set.
	Score float64
	// MeetsSLO reports whether the fix set's replay restored the SLO.
	MeetsSLO bool
	// TrueFix reports whether restoring the injected target is part of the
	// top-ranked fix set.
	TrueFix bool
	// Replays counts the counterfactual replays the search spent.
	Replays int
}

// RepairResult aggregates the repair extension.
type RepairResult struct {
	Rows []RepairRow
}

// String renders the result.
func (r *RepairResult) String() string {
	t := Table{
		Title:  "Counterfactual repair (verdict-ranked minimal fix sets)",
		Header: []string{"app", "fault", "verdict", "minimal fix set", "score", "slo", "true-fix", "replays"},
		Widths: []int{12, 10, 10, 26, 7, 10, 9},
	}
	trueFixes := 0
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.App, row.Target, row.VerdictTop, row.FixSet,
			fmt.Sprintf("%.4f", row.Score), sloVerdict(row.MeetsSLO), strconv.FormatBool(row.TrueFix), strconv.Itoa(row.Replays)})
		if row.TrueFix {
			trueFixes++
		}
	}
	t.Footer = []string{fmt.Sprintf("true fix in top-ranked set: %d/%d", trueFixes, len(r.Rows))}
	return t.String()
}

// sloVerdict renders an SLO outcome.
func sloVerdict(ok bool) string {
	if ok {
		return "restored"
	}
	return "violated"
}

// repairCases picks the evaluated fault scenarios: two per app, covering
// distinct flows, so the section stays affordable inside the full report.
func repairCases() []struct {
	Name    string
	Build   apps.Builder
	Targets []string
} {
	return []struct {
		Name    string
		Build   apps.Builder
		Targets []string
	}{
		{causalbench.Name, causalbench.Build, []string{"B", "H"}},
		{robotshop.Name, robotshop.Build, []string{"payment", "catalogue"}},
	}
}

// RunRepairExtension trains the paper model on each app, localizes each
// evaluated fault scenario, and feeds the verdict's attribution ranking to
// the fix-set search. The searched window uses compact quick-mode durations
// in Quick runs and the repair defaults otherwise.
func RunRepairExtension(ctx context.Context, o Options) (*RepairResult, error) {
	result := &RepairResult{}
	for _, app := range repairCases() {
		cfg := o.Apply(Config{Build: app.Build, Metrics: metrics.DerivedAll()})
		model, err := Train(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: repair extension train %s: %w", app.Name, err)
		}
		localizer, err := core.NewLocalizer(core.WithWorkers(1))
		if err != nil {
			return nil, err
		}
		cfgd, err := cfg.withDefaults()
		if err != nil {
			return nil, err
		}
		for i, target := range app.Targets {
			seed := cfgd.Seed + 7300 + int64(i)
			production, err := CollectProduction(ctx, cfg, cfgd.TestMultiplier, target, chaos.Unavailable(), seed)
			if err != nil {
				return nil, fmt.Errorf("eval: repair extension %s/%s: %w", app.Name, target, err)
			}
			loc, err := localizer.Localize(ctx, model, production)
			if err != nil {
				return nil, fmt.Errorf("eval: repair extension localize %s/%s: %w", app.Name, target, err)
			}
			ranked := loc.Ranked()
			verdictTop := "-"
			if len(ranked) > 0 {
				verdictTop = ranked[0]
			}
			sc := repair.Scenario{
				App:    app.Name,
				Build:  app.Build,
				Seed:   seed,
				Faults: []chaos.TargetFault{{Target: target, Fault: chaos.Unavailable()}},
			}
			if o.Quick {
				sc.Warmup = repair.QuickWarmup
				sc.Window = repair.QuickWindow
			}
			report, err := repair.Search(ctx, sc, repair.Options{Ranked: ranked, Workers: cfgd.Workers})
			if err != nil {
				return nil, fmt.Errorf("eval: repair extension search %s/%s: %w", app.Name, target, err)
			}
			row := RepairRow{
				App:        app.Name,
				Target:     target,
				VerdictTop: verdictTop,
				FixSet:     "(none needed)",
				Replays:    report.Replays,
			}
			if chosen := report.Chosen(); chosen != nil {
				names := make([]string, len(chosen.Interventions))
				for j, iv := range chosen.Interventions {
					names[j] = iv.String()
					if iv.Kind == repair.KindRestore && iv.Target == target {
						row.TrueFix = true
					}
				}
				row.FixSet = strings.Join(names, " + ")
				row.Size = len(chosen.Interventions)
				row.Score = chosen.Score
				row.MeetsSLO = chosen.MeetsSLO
			}
			result.Rows = append(result.Rows, row)
		}
	}
	return result, nil
}
