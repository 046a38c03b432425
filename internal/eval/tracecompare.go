package eval

import (
	"context"
	"fmt"
	"strings"

	"causalfl/internal/apps/causalbench"
	"causalfl/internal/core"
	"causalfl/internal/load"
	"causalfl/internal/metrics"
	"causalfl/internal/traces"
)

// TraceComparisonRow scores one injected fault under both localizers.
type TraceComparisonRow struct {
	Target          string
	TraceCandidates []string
	TraceCorrect    bool
	OurCandidates   []string
	OurCorrect      bool
}

// TraceComparisonResult pits the trace-based root-cause baseline (deepest
// erroring span of failed user traces) against the interventional causal
// localizer on every CausalBench fault. It operationalizes the paper's
// introductory argument: tracing pinpoints faults on synchronous request
// paths but is blind to omission faults (G dies and no user trace ever
// fails) and degrades when services drop trace context.
type TraceComparisonResult struct {
	Rows          []TraceComparisonRow
	TraceAccuracy float64
	TraceInfo     float64
	OurAccuracy   float64
	OurInfo       float64
}

// String renders the per-fault comparison.
func (r *TraceComparisonResult) String() string {
	t := Table{
		Title:  "Tracing vs interventional causal learning (CausalBench)",
		Header: []string{"fault", "trace RCA", "causalfl"},
		Widths: []int{8, 32},
		Footer: []string{
			fmt.Sprintf("trace RCA: accuracy=%.2f informativeness=%.2f", r.TraceAccuracy, r.TraceInfo),
			fmt.Sprintf("causalfl : accuracy=%.2f informativeness=%.2f", r.OurAccuracy, r.OurInfo),
		},
	}
	verdict := func(ok bool, candidates []string) string {
		mark := "-"
		if ok {
			mark = "+"
		}
		return fmt.Sprintf("%s {%s}", mark, strings.Join(candidates, ","))
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Target,
			verdict(row.TraceCorrect, row.TraceCandidates), verdict(row.OurCorrect, row.OurCandidates)})
	}
	return t.String()
}

// RunTraceComparison trains the causal model, then for every fault target
// collects one production session observed simultaneously by the metric
// pipeline and a span collector, and scores both localizers on it.
func RunTraceComparison(ctx context.Context, o Options) (*TraceComparisonResult, error) {
	cfg := o.Apply(Config{
		Build:   causalbench.Build,
		Metrics: metrics.DerivedAll(),
	})
	model, err := Train(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: trace comparison: %w", err)
	}
	localizer, err := core.NewLocalizer()
	if err != nil {
		return nil, err
	}
	cfg, err = cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	result := &TraceComparisonResult{}
	traceLoc := &traces.Localizer{ClientName: load.ClientName}
	n := len(model.Services)
	var traceHits, ourHits int
	var traceInfo, ourInfo float64

	for i, target := range model.Targets {
		s, err := newSession(cfg, cfg.TestMultiplier, cfg.Seed+7000+int64(i))
		if err != nil {
			return nil, err
		}
		collector := traces.NewCollector()
		s.app.Cluster.SetSpanObserver(collector.Observe)

		if err := s.injector.Inject(target, cfg.Fault); err != nil {
			return nil, fmt.Errorf("eval: trace comparison inject %s: %w", target, err)
		}
		s.settle()
		collector.Drain() // discard warmup/settle spans
		production, err := s.collect(cfg.FaultDuration)
		if err != nil {
			return nil, err
		}
		spans := collector.Drain()

		traceCandidates, err := traceLoc.Localize(spans, s.app.Services())
		if err != nil {
			return nil, fmt.Errorf("eval: trace comparison localize %s: %w", target, err)
		}
		loc, err := localizer.Localize(ctx, model, production)
		if err != nil {
			return nil, err
		}

		row := TraceComparisonRow{
			Target:          target,
			TraceCandidates: traceCandidates,
			TraceCorrect:    containsString(traceCandidates, target) && len(traceCandidates) < n,
			OurCandidates:   loc.Candidates,
			OurCorrect:      containsString(loc.Candidates, target),
		}
		result.Rows = append(result.Rows, row)
		if row.TraceCorrect {
			traceHits++
		}
		if row.OurCorrect {
			ourHits++
		}
		traceInfo += Informativeness(n, len(traceCandidates))
		ourInfo += Informativeness(n, len(loc.Candidates))
	}
	total := float64(len(result.Rows))
	result.TraceAccuracy = float64(traceHits) / total
	result.OurAccuracy = float64(ourHits) / total
	result.TraceInfo = traceInfo / total
	result.OurInfo = ourInfo / total
	return result, nil
}

// containsString reports membership.
func containsString(set []string, s string) bool {
	for _, v := range set {
		if v == s {
			return true
		}
	}
	return false
}
