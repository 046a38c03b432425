package eval

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"causalfl/internal/apps"
	"causalfl/internal/apps/causalbench"
	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/sim"
)

// Noisy-neighbor interference experiment: an *unmonitored* batch job starts
// burning cores on the node a healthy service shares. Nothing in the
// application is faulty; no monitored counter shows the culprit. The probe
// measures which metric sets raise a false alarm.
//
// This closes the loop with the fault-type extension: the busy⊘rx occupancy
// metric is what makes latency faults visible, and it is also the only
// channel through which pure interference can masquerade as an application
// fault. Metric choice buys sensitivity at the price of false-alarm surface
// — the paper's "carefully choose the metrics" (§V-A), quantified.

// interferenceNode is the shared node of the experiment.
const interferenceNode = "shared-node"

// interferenceVictim is the CausalBench service placed on the shared node.
const interferenceVictim = "E"

// BuildWithSharedNode is causalbench.Build plus a one-core node hosting the
// victim. It satisfies apps.Builder.
func BuildWithSharedNode(eng *sim.Engine) (*apps.App, error) {
	app, err := causalbench.Build(eng)
	if err != nil {
		return nil, err
	}
	if err := app.Cluster.AddNode(sim.NodeConfig{Name: interferenceNode, Cores: 1}); err != nil {
		return nil, err
	}
	if err := app.Cluster.Place(interferenceVictim, interferenceNode); err != nil {
		return nil, err
	}
	return app, nil
}

// InterferenceRow is one metric set's verdict on one production period.
type InterferenceRow struct {
	Preset string
	// Interfered marks the batch-job period (false = healthy control).
	Interfered bool
	// AlarmRaised reports whether some metric cast an unambiguous, untied
	// vote (mass >= 1): tie fragments mean the metric could not actually
	// distinguish an explanation, so they do not constitute an alarm.
	AlarmRaised bool
	// Candidates is the (spurious) fault set when an alarm was raised.
	Candidates []string
}

// InterferenceResult is the false-alarm probe's outcome.
type InterferenceResult struct {
	Rows []InterferenceRow
}

// String renders the verdicts.
func (r *InterferenceResult) String() string {
	t := Table{
		Title:  fmt.Sprintf("Noisy-neighbor interference (healthy app, unmonitored batch job beside %s)", interferenceVictim),
		Header: []string{"metric set", "period", "alarm", "blamed"},
		Widths: []int{13, 11, 7},
	}
	for _, row := range r.Rows {
		blamed := "-"
		if row.AlarmRaised {
			blamed = strings.Join(row.Candidates, ",")
		}
		period := "healthy"
		if row.Interfered {
			period = "batch job"
		}
		t.Rows = append(t.Rows, []string{row.Preset, period, strconv.FormatBool(row.AlarmRaised), blamed})
	}
	return t.String()
}

// CollectInterferedProduction collects healthy production data from the
// shared-node build, optionally with the batch job active. Exposed for
// diagnostics and the false-alarm probe.
func CollectInterferedProduction(cfg Config, interfere bool, seedOffset int64) (*metrics.Snapshot, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s, err := newSession(cfg, 1, cfg.Seed+seedOffset)
	if err != nil {
		return nil, err
	}
	if interfere {
		if err := s.app.Cluster.SetNodeBackgroundLoad(interferenceNode, 2); err != nil {
			return nil, fmt.Errorf("eval: interference inject: %w", err)
		}
	}
	s.settle()
	return s.collect(cfg.FaultDuration)
}

// RunInterferenceExtension trains normally (no interference), then scores
// each metric set on a healthy control period and on a period with the
// batch job active.
func RunInterferenceExtension(ctx context.Context, o Options) (*InterferenceResult, error) {
	result := &InterferenceResult{}
	for _, preset := range []string{metrics.SetDerivedAll, metrics.SetDerivedExt} {
		set, err := metrics.Preset(preset)
		if err != nil {
			return nil, err
		}
		cfg := o.Apply(Config{Build: BuildWithSharedNode, Metrics: set})
		model, err := Train(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: interference train (%s): %w", preset, err)
		}
		localizer, err := core.NewLocalizer()
		if err != nil {
			return nil, err
		}
		for _, interfere := range []bool{false, true} {
			production, err := CollectInterferedProduction(cfg, interfere, 31)
			if err != nil {
				return nil, fmt.Errorf("eval: interference collect (%s): %w", preset, err)
			}
			loc, err := localizer.Localize(ctx, model, production)
			if err != nil {
				return nil, fmt.Errorf("eval: interference localize (%s): %w", preset, err)
			}
			maxVote := 0.0
			for _, v := range loc.Votes {
				if v > maxVote {
					maxVote = v
				}
			}
			row := InterferenceRow{Preset: preset, Interfered: interfere, AlarmRaised: maxVote >= 1}
			if row.AlarmRaised {
				row.Candidates = loc.Candidates
			}
			result.Rows = append(result.Rows, row)
		}
	}
	return result, nil
}
