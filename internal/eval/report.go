package eval

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"causalfl/internal/core"
)

// Outcome records one scored fault-injection test.
type Outcome struct {
	// Target is the service that actually carried the fault.
	Target string
	// Candidates is the localizer's estimated fault-location set.
	Candidates []string
	// Correct reports whether Target ∈ Candidates (the paper's accuracy
	// criterion: the output is a set of candidate root causes).
	Correct bool
	// Informativeness is (n-x)/(n-1) with n services and x candidates
	// (§VI-A): 1.0 pins a single location, 0 excludes nothing. An
	// abstention scores 0: naming nobody excludes nobody.
	Informativeness float64
	// Abstained marks a localization that declined to answer because the
	// telemetry was too degraded to test anything.
	Abstained bool
	// Coverage is the localization's mean per-metric coverage (1 on clean
	// data).
	Coverage float64
	// Votes is the localizer's vote mass per candidate target.
	Votes map[string]float64
}

// newOutcome scores one localization against the known injected target.
func newOutcome(target string, loc *core.Localization, nServices int) Outcome {
	correct := false
	for _, c := range loc.Candidates {
		if c == target {
			correct = true
			break
		}
	}
	o := Outcome{
		Target:          target,
		Candidates:      append([]string(nil), loc.Candidates...),
		Correct:         correct,
		Informativeness: Informativeness(nServices, len(loc.Candidates)),
		Abstained:       loc.Abstained,
		Coverage:        1,
		Votes:           loc.Votes,
	}
	if n := len(loc.MetricCoverage); n > 0 {
		sum := 0.0
		for _, c := range loc.MetricCoverage {
			sum += c
		}
		o.Coverage = sum / float64(n)
	}
	return o
}

// Informativeness computes (n-x)/(n-1) (paper §VI-A), clamped to [0, 1].
// An empty answer (x = 0, an abstention) yields 0: naming nobody excludes
// nobody. Otherwise n <= 1 yields 1 by convention (there is nothing to
// exclude).
func Informativeness(n, x int) float64 {
	if x <= 0 {
		return 0
	}
	if n <= 1 {
		return 1
	}
	v := float64(n-x) / float64(n-1)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Report aggregates a campaign's outcomes.
type Report struct {
	// App names the benchmark.
	App string
	// Multiplier is the test load scale.
	Multiplier float64
	// ServiceCount is n for the informativeness measure.
	ServiceCount int
	// MetricNames lists the metric set evaluated.
	MetricNames []string
	// Outcomes holds one entry per injected fault test.
	Outcomes []Outcome
	// Accuracy is the fraction of outcomes with the true target in the
	// candidate set.
	Accuracy float64
	// MeanInformativeness averages per-outcome informativeness.
	MeanInformativeness float64
}

// finalize computes the aggregate measures.
func (r *Report) finalize() {
	if len(r.Outcomes) == 0 {
		return
	}
	correct := 0
	var info float64
	for _, o := range r.Outcomes {
		if o.Correct {
			correct++
		}
		info += o.Informativeness
	}
	r.Accuracy = float64(correct) / float64(len(r.Outcomes))
	r.MeanInformativeness = info / float64(len(r.Outcomes))
}

// String renders the report as a fixed-width table with one row per fault.
func (r *Report) String() string {
	t := Table{
		Title: fmt.Sprintf("%s @ %.0fx load (%d services, metrics: %s)",
			r.App, r.Multiplier, r.ServiceCount, strings.Join(r.MetricNames, ",")),
		Header: []string{"fault", "correct", "info", "candidates"},
		Widths: []int{10, 8, 6},
		Footer: []string{fmt.Sprintf("accuracy=%.2f informativeness=%.2f", r.Accuracy, r.MeanInformativeness)},
	}
	for _, o := range r.Outcomes {
		t.Rows = append(t.Rows, []string{o.Target, strconv.FormatBool(o.Correct),
			fmt.Sprintf("%.2f", o.Informativeness), strings.Join(o.Candidates, ",")})
	}
	return t.String()
}

// Abstentions counts the outcomes where the localizer declined to answer.
func (r *Report) Abstentions() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Abstained {
			n++
		}
	}
	return n
}

// MeanCoverage averages the outcomes' metric coverage (0 with no outcomes).
func (r *Report) MeanCoverage() float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	sum := 0.0
	for _, o := range r.Outcomes {
		sum += o.Coverage
	}
	return sum / float64(len(r.Outcomes))
}

// Misses lists the targets that were localized incorrectly, sorted.
func (r *Report) Misses() []string {
	var out []string
	for _, o := range r.Outcomes {
		if !o.Correct {
			out = append(out, o.Target)
		}
	}
	sort.Strings(out)
	return out
}
