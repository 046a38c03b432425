// Package report renders the complete evaluation — every table, figure,
// extension experiment and the baseline arena — as a single Markdown
// document. `causalfl report` is the one-command reproduction of
// EXPERIMENTS.md's raw data.
package report

import (
	"context"
	"fmt"
	"io"
	"time"

	"causalfl/internal/apps/causalbench"
	"causalfl/internal/apps/robotshop"
	"causalfl/internal/arena"
	"causalfl/internal/eval"
	"causalfl/internal/parallel"
)

// Section is one named experiment in the report.
type Section struct {
	// Key identifies the section as "group/name" or "group". causalfl
	// tables, figures, extensions and scale print the sections of their
	// group; the name is the value of a selector flag (-table 1, -fig 2).
	Key string
	// Title is the Markdown heading.
	Title string
	// Run produces the section body (the experiment's String output).
	Run func(context.Context, eval.Options) (fmt.Stringer, error)
}

// Sections returns the full evaluation in presentation order.
func Sections() []Section {
	return []Section{
		{"tables/1", "Table I — accuracy and informativeness", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunTableI(ctx, o)
		}},
		{"tables/2", "Table II — metric sets under load drift", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return arena.RunTableII(ctx, o)
		}},
		{"figures/1", "Fig. 1 — metric-dependent causal worlds", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunFig1(ctx, o)
		}},
		{"figures/2", "Fig. 2 — the load confounder", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunFig2(ctx, o)
		}},
		{"figures/causal-sets", "§VI-B — causal sets for an intervention on B", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunCausalSetsExample(ctx, o)
		}},
		{"figures/logging", "§III-B — logging discipline changes the causal world", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunLoggingDiscipline(ctx, o)
		}},
		{"extensions/fault-type", "Extension — fault-type generalization", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunFaultTypeExtension(ctx, o)
		}},
		{"extensions/multi-fault", "Extension — concurrent faults", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunMultiFaultExtension(ctx, o)
		}},
		{"extensions/tracing", "Extension — tracing comparison", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunTraceComparison(ctx, o)
		}},
		{"extensions/nonstationary", "Extension — nonstationary load", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return arena.RunNonstationaryExtension(ctx, o)
		}},
		{"extensions/interference", "Extension — noisy-neighbor interference", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunInterferenceExtension(ctx, o)
		}},
		{"extensions/contamination", "Extension — contaminated baseline", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunContaminationExtension(ctx, o)
		}},
		{"extensions/budget", "Extension — training budget", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunBudgetExtension(ctx, o)
		}},
		{"scale", "Extension — scalability", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunScalabilityExtension(ctx, o)
		}},
		{"degraded/causalbench", "Extension — degraded telemetry (CausalBench)", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunDegradationSweep(ctx, o, causalbench.Build, causalbench.Name, nil)
		}},
		{"degraded/robotshop", "Extension — degraded telemetry (Robot-shop)", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunDegradationSweep(ctx, o, robotshop.Build, robotshop.Name, nil)
		}},
		{"repair", "Extension — counterfactual repair", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunRepairExtension(ctx, o)
		}},
		{"arena", "Extension — baseline arena", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			// The arena keeps its virtual per-cell clock (Clock nil) so the
			// section body is byte-stable across regenerations; the section's
			// own wall timing below still reports the host cost.
			return arena.Run(ctx, arena.Options{
				Seed:    o.Seed,
				Quick:   o.Quick,
				Workers: o.Workers,
			})
		}},
	}
}

// Generate runs every section and writes the Markdown document. Sections are
// independent deterministic simulations, so they shard across the worker
// pool (bounded by o.Workers, or GOMAXPROCS when zero) and are written in
// presentation order; the output is byte-identical to a sequential run.
// Section failures abort: a partial evaluation is worse than a loud error.
func Generate(ctx context.Context, o eval.Options, w io.Writer) error {
	mode := "paper-length (10-minute collection periods)"
	if o.Quick {
		mode = "abbreviated (2.5-minute collection periods)"
	}
	if _, err := fmt.Fprintf(w, "# causalfl evaluation report\n\nMode: %s. Seed: %d.\n", mode, o.EffectiveSeed()); err != nil {
		return fmt.Errorf("report: %w", err)
	}

	sections := Sections()
	type outcome struct {
		result fmt.Stringer
		wall   time.Duration
	}
	clk := o.WallClock()
	// Each section keeps its internal pools serial (Workers: 1): the
	// section fan-out already owns the pool, and nesting would oversubscribe.
	inner := o
	inner.Workers = 1
	outcomes, err := parallel.Map(ctx, o.Workers, len(sections), func(ctx context.Context, idx int) (outcome, error) {
		start := clk.Now()
		result, err := sections[idx].Run(ctx, inner)
		if err != nil {
			return outcome{}, fmt.Errorf("report: %s: %w", sections[idx].Title, err)
		}
		return outcome{result: result, wall: clk.Now().Sub(start).Round(time.Millisecond)}, nil
	})
	if err != nil {
		return err
	}

	for idx, section := range sections {
		oc := outcomes[idx]
		if _, err := fmt.Fprintf(w, "\n## %s\n\n```\n%s```\n\n(_%v_)\n", section.Title, oc.result.String(), oc.wall); err != nil {
			return fmt.Errorf("report: %s: %w", section.Title, err)
		}
	}
	return nil
}
