package eval

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"causalfl/internal/apps/synth"
	"causalfl/internal/metrics"
)

// ScalabilitySizes are the default application sizes swept.
var ScalabilitySizes = []int{9, 18, 36}

// RunScalabilityExtension measures localization quality and cost as the
// application grows — the production-scale regime (40+ services per call
// graph, per the Alibaba study the paper cites) that the 9- and 12-service
// benchmarks cannot probe. The dominant cost is inherent to the method:
// Algorithm 1 needs one fault-injection window per service, so training time
// grows linearly in application size (the train wall also proxies the
// real-world injection budget). Arms are labelled by service count.
func RunScalabilityExtension(ctx context.Context, o Options) (*ExperimentResult, error) {
	e := Experiment{
		Title:  "Scalability on generated topologies (derived metrics, 1x load)",
		Header: []string{"services", "targets", "accuracy", "informativeness", "train-wall", "eval-wall"},
		Widths: []int{9, 8, 9, 16, 11},
		Cells: func(a ArmResult) []string {
			return append(append([]string{strconv.Itoa(len(a.Model.Targets))}, accuracyCells(a)...),
				a.TrainWall.Round(time.Millisecond).String(), a.EvalWall.Round(time.Millisecond).String())
		},
	}
	for _, n := range ScalabilitySizes {
		build, err := synth.Builder(synth.Config{Services: n, Seed: o.EffectiveSeed()})
		if err != nil {
			return nil, fmt.Errorf("eval: scalability n=%d: %w", n, err)
		}
		cfg := o.Apply(Config{Build: build, Metrics: metrics.DerivedAll()})
		e.Trials = append(e.Trials, Trial{Train: cfg, Arms: []Arm{{Labels: []string{strconv.Itoa(n)}, Test: cfg}}})
	}
	return e.Run(ctx, o)
}
