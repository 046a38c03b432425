package core

import (
	"context"
	"fmt"

	"causalfl/internal/metrics"
	"causalfl/internal/stats"
)

// DetectConfig configures one Detect call. The zero value is usable: guarded
// KS test, DefaultAlpha, per-test thresholds (no FDR control), strict
// completeness.
type DetectConfig struct {
	// Test is the two-sample test; nil selects the library default (a KS
	// test wrapped in the practical-equivalence guard).
	Test stats.TwoSampleTest
	// Alpha is the per-test significance threshold. Zero selects
	// DefaultAlpha. Ignored when FDR > 0.
	Alpha float64
	// FDR, when positive, switches the family decision to
	// Benjamini-Hochberg control at this level; Alpha is then ignored.
	FDR float64
	// MinSamples is the minimum finite series length per side required to
	// test a pair in tolerant mode. Zero selects DefaultMinSamples. Ignored
	// in strict mode, which never skips.
	MinSamples int
	// Tolerant selects degraded-telemetry semantics: (metric, service)
	// pairs that are missing on either side, or too short after dropping
	// non-finite production values, are skipped instead of failing the
	// call. Strict mode errors on the first missing pair.
	Tolerant bool
}

// Detection is the outcome of one Detect call over a single metric.
type Detection struct {
	// Anomalous is the sorted set of services whose production distribution
	// shifted from baseline — A(M) in Algorithm 2.
	Anomalous []string
	// Tested counts the (metric, service) pairs actually compared: the
	// family size, and the coverage numerator in tolerant mode.
	Tested int
}

// Detect computes the anomalous set A(metric) by comparing each service's
// production series against its baseline series (Algorithm 2 lines 8–13). It
// is the single detection entry point shared by the localizer, the baseline
// techniques, and the figure experiments; the per-test-versus-FDR choice and
// strict-versus-tolerant completeness are DetectConfig fields rather than
// separate functions. Families are small, so the tests run serially; callers
// that want parallelism fan out across metrics.
func Detect(ctx context.Context, cfg DetectConfig, baseline, production *metrics.Snapshot, metric string) (*Detection, error) {
	if baseline == nil {
		return nil, fmt.Errorf("core: detect: nil baseline snapshot")
	}
	if production == nil {
		return nil, fmt.Errorf("core: detect: nil production snapshot")
	}
	if cfg.FDR < 0 || cfg.FDR >= 1 {
		return nil, fmt.Errorf("core: FDR level must be in (0,1), got %v", cfg.FDR)
	}
	test := cfg.Test
	if test == nil {
		test = stats.GuardedTest{Inner: stats.KSTest{}}
	}
	alpha := cfg.Alpha
	if alpha == 0 && cfg.FDR == 0 {
		alpha = DefaultAlpha
	}
	minSamples := cfg.MinSamples
	if minSamples < 1 {
		minSamples = DefaultMinSamples
	}

	type pair struct{ prod, base []float64 }
	var family []string
	var pairs []pair
	for _, svc := range baseline.Services {
		var base, prod []float64
		if cfg.Tolerant {
			var okB, okP bool
			base, okB = baseline.SeriesOK(metric, svc)
			prod, okP = production.SeriesOK(metric, svc)
			if !okB || !okP {
				continue
			}
			prod = finiteValues(prod)
			if len(base) < minSamples || len(prod) < minSamples {
				continue
			}
		} else {
			var err error
			if base, err = baseline.Series(metric, svc); err != nil {
				return nil, err
			}
			if prod, err = production.Series(metric, svc); err != nil {
				return nil, err
			}
		}
		family = append(family, svc)
		pairs = append(pairs, pair{prod: prod, base: base})
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pvals := make([]float64, len(family))
	for i, pr := range pairs {
		p, err := test.PValue(pr.prod, pr.base)
		if err != nil {
			return nil, fmt.Errorf("core: anomaly test %s on %s: %w", metric, family[i], err)
		}
		pvals[i] = p
	}

	// The family decision runs once over every p-value, so Benjamini-Hochberg
	// sees the whole family.
	shifted, err := DecideFamily(pvals, alpha, cfg.FDR)
	if err != nil {
		return nil, fmt.Errorf("core: anomalies: %w", err)
	}
	set := make(map[string]bool)
	for i, svc := range family {
		if shifted[i] {
			set[svc] = true
		}
	}
	return &Detection{Anomalous: sortedSet(set), Tested: len(family)}, nil
}

// DecideFamily turns a family of p-values into rejection decisions, either
// with the paper's per-test alpha threshold or with BH FDR control when
// fdrQ > 0. It is exported so the streaming detection engine
// (internal/stream), which computes its p-values incrementally, shares the
// exact decision arithmetic with the batch path.
func DecideFamily(pvals []float64, alpha, fdrQ float64) ([]bool, error) {
	if fdrQ > 0 {
		return stats.BenjaminiHochberg(pvals, fdrQ)
	}
	out := make([]bool, len(pvals))
	for i, p := range pvals {
		out[i] = p < alpha
	}
	return out, nil
}
