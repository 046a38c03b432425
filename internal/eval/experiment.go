package eval

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"causalfl/internal/core"
	"causalfl/internal/parallel"
)

// Table is a fixed-width text table: a title line, an optional header, one
// line per row, then free-form footer lines. Every column but the last is
// left-aligned and padded to its width (a missing width pads nothing), and
// columns are joined by one space. Cells arrive formatted, so "%-9.2f" in a
// row is a "%.2f" cell under width 9.
type Table struct {
	Title  string
	Header []string
	Widths []int
	Rows   [][]string
	Footer []string
}

// String renders the table.
func (t Table) String() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(' ')
			}
			if i == len(cells)-1 || i >= len(t.Widths) {
				b.WriteString(cell)
			} else {
				fmt.Fprintf(&b, "%-*s", t.Widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	if t.Header != nil {
		line(t.Header)
	}
	for _, row := range t.Rows {
		line(row)
	}
	for _, f := range t.Footer {
		b.WriteString(f + "\n")
	}
	return b.String()
}

// Arm is one test configuration of a trial, named by the labels that open
// its table row.
type Arm struct {
	Labels []string
	Test   Config
}

// Trial trains one model under Train and tests it under every arm.
type Trial struct {
	Train Config
	Arms  []Arm
}

// ArmResult is one tested arm: its labels, its scored test campaign, the
// trial's model, and the host wall-clock cost of training (shared by the
// trial's arms) and of this arm's evaluation.
type ArmResult struct {
	Labels    []string
	Report    *Report
	Model     *core.Model
	TrainWall time.Duration
	EvalWall  time.Duration
}

// Experiment declares a train→test experiment: its trials, and how the
// table renders each tested arm.
type Experiment struct {
	Title  string
	Header []string
	Widths []int
	Trials []Trial
	// Cells renders the columns that follow an arm's labels.
	Cells func(ArmResult) []string
}

// ExperimentResult is a run experiment: its rendered table and every arm in
// declaration order.
type ExperimentResult struct {
	Table
	Arms []ArmResult
}

// Arm returns the arm with exactly these labels, or nil.
func (r *ExperimentResult) Arm(labels ...string) *ArmResult {
	for i := range r.Arms {
		if slices.Equal(r.Arms[i].Labels, labels) {
			return &r.Arms[i]
		}
	}
	return nil
}

// Run runs the trials serially in declaration order, each training one
// model. A trial's arms are independent evaluations of that read-only
// model: they fan out across the o.Workers pool with serial inner campaigns,
// so the pool is not oversubscribed, and assemble in declaration order.
// Walls come from o.WallClock().
func (e Experiment) Run(ctx context.Context, o Options) (*ExperimentResult, error) {
	clk := o.WallClock()
	result := &ExperimentResult{Table: Table{Title: e.Title, Header: e.Header, Widths: e.Widths}}
	for _, trial := range e.Trials {
		start := clk.Now()
		model, err := Train(ctx, trial.Train)
		if err != nil {
			return nil, fmt.Errorf("eval: %s: train: %w", e.Title, err)
		}
		trainWall := clk.Now().Sub(start)
		arms, err := parallel.Map(ctx, o.Workers, len(trial.Arms), func(ctx context.Context, i int) (ArmResult, error) {
			arm := trial.Arms[i]
			test := arm.Test
			test.Workers = 1
			start := clk.Now()
			report, err := Evaluate(ctx, test, model)
			if err != nil {
				return ArmResult{}, fmt.Errorf("eval: %s: %s: %w", e.Title, strings.Join(arm.Labels, " "), err)
			}
			return ArmResult{Labels: arm.Labels, Report: report, Model: model, TrainWall: trainWall, EvalWall: clk.Now().Sub(start)}, nil
		})
		if err != nil {
			return nil, err
		}
		for _, arm := range arms {
			result.Rows = append(result.Rows, append(slices.Clone(arm.Labels), e.Cells(arm)...))
		}
		result.Arms = append(result.Arms, arms...)
	}
	return result, nil
}

// accuracyCells renders the paper's two measures.
func accuracyCells(a ArmResult) []string {
	return []string{fmt.Sprintf("%.2f", a.Report.Accuracy), fmt.Sprintf("%.2f", a.Report.MeanInformativeness)}
}
