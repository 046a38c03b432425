package eval

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"causalfl/internal/apps/causalbench"
	"causalfl/internal/chaos"
	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/parallel"
)

// This file implements the extension experiments beyond the paper's
// evaluation: fault-type generalization (the paper claims "our methodology
// is not dependent on a specific fault type, just that faults propagate"),
// concurrent-fault ranking (the paper assumes one fault at a time), and
// multi-seed robustness sweeps.

// RunFaultTypeExtension reports how a model trained exclusively on
// http-service-unavailable injections localizes *other* fault types at
// detection time: error-rate and latency faults on CausalBench. The metric
// set is extended with busy⊘rx (worker-slot occupancy per request): latency
// faults burn no extra CPU and drop no requests, so the paper's metric set
// alone cannot see them, but they hold worker slots longer — upstream
// callers included, because synchronous calls block.
func RunFaultTypeExtension(ctx context.Context, o Options) (*ExperimentResult, error) {
	cross := Trial{Train: o.Apply(Config{Build: causalbench.Build, Metrics: metrics.ExtendedDerived()})}
	latency := chaos.Fault{Type: chaos.Latency, Delay: 150 * time.Millisecond}
	for _, fault := range []chaos.Fault{chaos.Unavailable(), {Type: chaos.ErrorRate, Rate: 0.5}, latency} {
		test := cross.Train
		test.Fault = fault
		cross.Arms = append(cross.Arms, Arm{Labels: []string{chaos.ServiceUnavailable.String(), fault.Type.String()}, Test: test})
	}
	// Matched training: latency faults propagate along a different world
	// (blocking spreads upstream through held worker slots), so a model
	// trained on the *same* fault type recovers what the cross-type model
	// loses — quantifying the paper's §III observation that propagation
	// depends on the fault type.
	matched := cross.Train
	matched.Fault = latency
	return Experiment{
		Title:  "Fault-type generalization",
		Header: []string{"trained on", "production fault", "accuracy", "informativeness"},
		Widths: []int{26, 26, 9},
		Trials: []Trial{cross, {Train: matched, Arms: []Arm{{Labels: []string{latency.Type.String(), latency.Type.String()}, Test: matched}}}},
		Cells:  accuracyCells,
	}.Run(ctx, o)
}

// MultiFaultResult reports the concurrent-fault extension: with two faults
// active simultaneously, how often do both appear in the localizer's top-2
// ranking?
type MultiFaultResult struct {
	// Pairs is the number of evaluated fault pairs.
	Pairs int
	// BothInTop2 counts pairs fully recovered in the top-2 ranking.
	BothInTop2 int
	// AtLeastOne counts pairs where at least one fault ranked first or
	// second.
	AtLeastOne int
}

// String renders the result.
func (r *MultiFaultResult) String() string {
	return fmt.Sprintf("Concurrent-fault extension (2 simultaneous faults, greedy explain-away)\n"+
		"pairs=%d both-in-top2=%.2f at-least-one=%.2f\n",
		r.Pairs,
		float64(r.BothInTop2)/float64(r.Pairs),
		float64(r.AtLeastOne)/float64(r.Pairs))
}

// RunMultiFaultExtension trains the single-fault model, then injects fault
// pairs and scores the greedy explain-away localizer
// (core.Localizer.LocalizeMulti). Pairs are chosen on independent flows
// where possible (two faults on one path shadow each other).
func RunMultiFaultExtension(ctx context.Context, o Options) (*MultiFaultResult, error) {
	cfg := o.Apply(Config{
		Build:   causalbench.Build,
		Metrics: metrics.DerivedAll(),
	})
	model, err := Train(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: multi-fault extension: %w", err)
	}
	localizer, err := core.NewLocalizer()
	if err != nil {
		return nil, err
	}
	// Pairs on independent flows: each fault's signature stays visible.
	pairs := [][2]string{
		{"B", "I"}, {"C", "H"}, {"E", "I"}, {"G", "C"}, {"D", "B"}, {"H", "E"},
	}
	result := &MultiFaultResult{}
	for i, pair := range pairs {
		production, err := CollectProductionMulti(ctx, cfg, 1, pair[:], chaos.Unavailable(), cfg.Seed+5000+int64(i))
		if err != nil {
			return nil, err
		}
		named, err := localizer.LocalizeMulti(ctx, model, production, 2)
		if err != nil {
			return nil, err
		}
		top2 := make(map[string]bool, 2)
		for _, svc := range named {
			top2[svc] = true
		}
		hits := 0
		for _, target := range pair {
			if top2[target] {
				hits++
			}
		}
		result.Pairs++
		if hits == 2 {
			result.BothInTop2++
		}
		if hits >= 1 {
			result.AtLeastOne++
		}
	}
	return result, nil
}

// RunContaminationExtension is the contaminated-baseline robustness probe:
// Algorithm 1 assumes the T_0 period is fault free, but production baselines
// are collected from systems that may already be degraded. It trains one
// model with a fault left active in one service while D_0 is collected, and
// scores it next to an uncontaminated control run with the same seeds.
func RunContaminationExtension(ctx context.Context, o Options) (*ExperimentResult, error) {
	const contaminant = "C"
	clean := o.Apply(Config{Build: causalbench.Build, Metrics: metrics.DerivedAll()})
	dirty := clean
	dirty.dirtyBaseline = contaminant
	return Experiment{
		Title: fmt.Sprintf("Contaminated-baseline extension (hidden fault in %s during D_0 collection)", contaminant),
		Trials: []Trial{
			{Train: clean, Arms: []Arm{{Labels: []string{"clean baseline:"}, Test: clean}}},
			{Train: dirty, Arms: []Arm{{Labels: []string{"dirty  baseline:"}, Test: clean}}},
		},
		Cells: func(a ArmResult) []string {
			return []string{
				fmt.Sprintf("accuracy=%.2f", a.Report.Accuracy),
				fmt.Sprintf("informativeness=%.2f", a.Report.MeanInformativeness),
			}
		},
	}.Run(ctx, o)
}

// RunBudgetExtension sweeps the intervention budget: Algorithm 1's cost is
// one controlled fault window per service, and the experimental-design
// literature the paper cites ([30]-[32]) is about spending fewer
// interventions. It trains on growing prefixes of CausalBench's fault
// targets and evaluates against faults in *all* services: faults in
// untrained services cannot be named (their worlds were never learned), so
// accuracy tracks the budget roughly linearly — the price of skipping
// injections, made explicit.
func RunBudgetExtension(ctx context.Context, o Options) (*ExperimentResult, error) {
	allTargets := []string{"A", "B", "C", "D", "E", "G", "H", "I"}
	e := Experiment{
		Title:  fmt.Sprintf("Training-budget curve (CausalBench, %d injectable services)", len(allTargets)),
		Header: []string{"trained targets", "accuracy", "informativeness"},
		Widths: []int{16, 9},
		Cells:  accuracyCells,
	}
	for _, k := range []int{2, 4, 6, 8} {
		train := o.Apply(Config{Build: causalbench.Build, Metrics: metrics.DerivedAll(), Targets: allTargets[:k]})
		// Test faults cover every injectable service, trained or not.
		test := train
		test.Targets = allTargets
		e.Trials = append(e.Trials, Trial{Train: train, Arms: []Arm{{Labels: []string{strconv.Itoa(k)}, Test: test}}})
	}
	return e.Run(ctx, o)
}

// SweepResult aggregates a multi-seed robustness sweep.
type SweepResult struct {
	App             string
	Multiplier      float64
	Seeds           []int64
	Accuracies      []float64
	Informativeness []float64
	MeanAccuracy    float64
	StdAccuracy     float64
	MeanInformative float64
	StdInformative  float64
}

// String renders the sweep summary.
func (r *SweepResult) String() string {
	return fmt.Sprintf("Seed sweep on %s @ %gx (%d seeds)\naccuracy        = %.3f ± %.3f\ninformativeness = %.3f ± %.3f\n",
		r.App, r.Multiplier, len(r.Seeds),
		r.MeanAccuracy, r.StdAccuracy, r.MeanInformative, r.StdInformative)
}

// SweepSeeds runs the full train-and-evaluate campaign once per seed and
// reports mean and standard deviation of both measures — the robustness
// check a single-seed table cannot give. Seeds are independent deterministic
// campaigns: they shard across the campaign worker pool and assemble in seed
// order, so the result is identical to a sequential sweep.
func SweepSeeds(ctx context.Context, cfg Config, seeds []int64) (*SweepResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("eval: sweep needs at least one seed")
	}
	base, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	result := &SweepResult{
		App:        appName(base),
		Multiplier: base.TestMultiplier,
		Seeds:      append([]int64(nil), seeds...),
	}
	type outcome struct {
		accuracy float64
		info     float64
	}
	outcomes, err := parallel.Map(ctx, cfg.Workers, len(seeds), func(ctx context.Context, idx int) (outcome, error) {
		c := cfg
		c.Seed = seeds[idx]
		c.Workers = 1 // each arm stays serial; the seed fan-out owns the pool
		_, report, err := Run(ctx, c)
		if err != nil {
			return outcome{}, fmt.Errorf("eval: sweep seed %d: %w", seeds[idx], err)
		}
		return outcome{accuracy: report.Accuracy, info: report.MeanInformativeness}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, oc := range outcomes {
		result.Accuracies = append(result.Accuracies, oc.accuracy)
		result.Informativeness = append(result.Informativeness, oc.info)
	}
	result.MeanAccuracy, result.StdAccuracy = meanStd(result.Accuracies)
	result.MeanInformative, result.StdInformative = meanStd(result.Informativeness)
	return result, nil
}

// meanStd returns the mean and (population) standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
