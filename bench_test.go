// Package causalfl's top-level benchmarks regenerate every table and figure
// of the paper's evaluation section, plus ablations of the design choices
// called out in DESIGN.md and microbenchmarks of the hot paths.
//
// Experiment benches use the abbreviated (Quick) collection windows so a full
// `go test -bench=. -benchmem` pass stays in the minutes range; the headline
// paper-length runs are produced by `causalfl tables` / `causalfl figures`
// and recorded in EXPERIMENTS.md. Accuracy and informativeness are attached
// to each bench result via b.ReportMetric.
package causalfl

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"causalfl/internal/apps"
	"causalfl/internal/apps/causalbench"
	"causalfl/internal/apps/robotshop"
	"causalfl/internal/arena"
	"causalfl/internal/baselines"
	"causalfl/internal/chaos"
	"causalfl/internal/clock"
	"causalfl/internal/core"
	"causalfl/internal/eval"
	"causalfl/internal/load"
	"causalfl/internal/metrics"
	"causalfl/internal/sim"
	"causalfl/internal/stats"
	"causalfl/internal/stream"
)

var benchOpts = eval.Options{Seed: 42, Quick: true}

// --- Table I ---------------------------------------------------------------

// runBench runs the train-then-evaluate campaign under cfg and reports its
// accuracy and informativeness.
func runBench(b *testing.B, cfg eval.Config) {
	b.Helper()
	var acc, info float64
	for i := 0; i < b.N; i++ {
		_, report, err := eval.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		acc, info = report.Accuracy, report.MeanInformativeness
	}
	b.ReportMetric(acc, "accuracy")
	b.ReportMetric(info, "informativeness")
}

// tableIBench trains at 1x and evaluates at the given multiplier.
func tableIBench(b *testing.B, build apps.Builder, mult float64) {
	runBench(b, benchOpts.Apply(eval.Config{Build: build, Metrics: metrics.DerivedAll(), TestMultiplier: mult}))
}

func BenchmarkTableI_CausalBench_1x(b *testing.B) { tableIBench(b, causalbench.Build, 1) }
func BenchmarkTableI_CausalBench_4x(b *testing.B) { tableIBench(b, causalbench.Build, 4) }
func BenchmarkTableI_RobotShop_1x(b *testing.B)   { tableIBench(b, robotshop.Build, 1) }
func BenchmarkTableI_RobotShop_4x(b *testing.B)   { tableIBench(b, robotshop.Build, 4) }

// --- Table II --------------------------------------------------------------

// gradeBench collects one shared training and test campaign under cfg and
// reports the arena's containment accuracy and informativeness for tech.
func gradeBench(b *testing.B, cfg eval.Config, tech baselines.Technique) {
	b.Helper()
	var acc, info float64
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		data, err := eval.CollectTraining(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cases, err := eval.CollectTests(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := arena.Grade(ctx, &clock.Fake{}, []baselines.Technique{tech}, data, cases)
		if err != nil {
			b.Fatal(err)
		}
		acc, info = rows[0].Contain, rows[0].MeanInformativeness
	}
	b.ReportMetric(acc, "accuracy")
	b.ReportMetric(info, "informativeness")
}

// tableIIBench scores one metric-set preset at 4x test load.
func tableIIBench(b *testing.B, build apps.Builder, preset string) {
	b.Helper()
	set, err := metrics.Preset(preset)
	if err != nil {
		b.Fatal(err)
	}
	union := append(metrics.RawAll(), metrics.DerivedAll()...)
	cfg := benchOpts.Apply(eval.Config{Build: build, Metrics: union, TestMultiplier: 4})
	gradeBench(b, cfg, &baselines.Paper{MetricNames: metrics.Names(set)})
}

func BenchmarkTableII_CausalBench_RawMsg(b *testing.B) {
	tableIIBench(b, causalbench.Build, metrics.SetRawMsg)
}
func BenchmarkTableII_CausalBench_RawCPU(b *testing.B) {
	tableIIBench(b, causalbench.Build, metrics.SetRawCPU)
}
func BenchmarkTableII_CausalBench_RawAll(b *testing.B) {
	tableIIBench(b, causalbench.Build, metrics.SetRawAll)
}
func BenchmarkTableII_CausalBench_DerivedMsg(b *testing.B) {
	tableIIBench(b, causalbench.Build, metrics.SetDerivedMsg)
}
func BenchmarkTableII_CausalBench_DerivedCPU(b *testing.B) {
	tableIIBench(b, causalbench.Build, metrics.SetDerivedCPU)
}
func BenchmarkTableII_CausalBench_DerivedAll(b *testing.B) {
	tableIIBench(b, causalbench.Build, metrics.SetDerivedAll)
}
func BenchmarkTableII_RobotShop_RawAll(b *testing.B) {
	tableIIBench(b, robotshop.Build, metrics.SetRawAll)
}
func BenchmarkTableII_RobotShop_DerivedAll(b *testing.B) {
	tableIIBench(b, robotshop.Build, metrics.SetDerivedAll)
}

// --- Figures ---------------------------------------------------------------

func BenchmarkFig1_MetricDependentCausality(b *testing.B) {
	var distinct float64
	for i := 0; i < b.N; i++ {
		result, err := eval.RunFig1(context.Background(), benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		// Count pattern/target combinations whose #logs and #requests
		// worlds differ — the figure's claim is that they all do.
		distinct = 0
		for _, byMetric := range result.Sets {
			for target := range byMetric[metrics.MsgRate.Name] {
				logs := byMetric[metrics.MsgRate.Name][target]
				reqs := byMetric[metrics.ReqRate.Name][target]
				if !equalSets(logs, reqs) {
					distinct++
				}
			}
		}
	}
	b.ReportMetric(distinct, "divergent-worlds")
}

func BenchmarkFig2_LoadConfounder(b *testing.B) {
	var shiftI, shiftC float64
	for i := 0; i < b.N; i++ {
		result, err := eval.RunFig2(context.Background(), benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		shiftI = result.FaultCI.Mean/result.HealthyI.Mean - 1
		shiftC = result.FaultIC.Mean/result.HealthyC.Mean - 1
	}
	b.ReportMetric(shiftI*100, "reqI-shift-%")
	b.ReportMetric(shiftC*100, "reqC-shift-%")
}

func BenchmarkCausalSetsExample(b *testing.B) {
	var match float64
	for i := 0; i < b.N; i++ {
		result, err := eval.RunCausalSetsExample(context.Background(), benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		match = 0
		if equalSets(result.MsgRateSet, []string{"A", "B", "E"}) {
			match++
		}
		if equalSets(result.CPUSet, []string{"B", "C", "E"}) {
			match++
		}
	}
	b.ReportMetric(match, "paper-matching-sets")
}

// --- Ablations (design choices from DESIGN.md §5) ---------------------------

// ablationConfig is the CausalBench derived-metric campaign at 4x test load
// that every ablation runs on.
func ablationConfig() eval.Config {
	return benchOpts.Apply(eval.Config{
		Build:          causalbench.Build,
		Metrics:        metrics.DerivedAll(),
		TestMultiplier: 4,
	})
}

func benchAblationAlpha(b *testing.B, alpha float64) {
	cfg := ablationConfig()
	cfg.Alpha = alpha
	runBench(b, cfg)
}

func BenchmarkAblation_Alpha001(b *testing.B) { benchAblationAlpha(b, 0.01) }
func BenchmarkAblation_Alpha005(b *testing.B) { benchAblationAlpha(b, 0.05) }
func BenchmarkAblation_Alpha010(b *testing.B) { benchAblationAlpha(b, 0.10) }

func benchAblationWindow(b *testing.B, length, hop time.Duration) {
	cfg := ablationConfig()
	cfg.WindowLength, cfg.WindowHop = length, hop
	runBench(b, cfg)
}

func BenchmarkAblation_Window15s(b *testing.B) {
	benchAblationWindow(b, 15*time.Second, 7500*time.Millisecond)
}
func BenchmarkAblation_Window30s(b *testing.B) {
	benchAblationWindow(b, 30*time.Second, 15*time.Second)
}
func BenchmarkAblation_Window60s(b *testing.B) {
	benchAblationWindow(b, 60*time.Second, 30*time.Second)
}

func benchAblationDuration(b *testing.B, d time.Duration) {
	cfg := ablationConfig()
	cfg.BaselineDuration, cfg.FaultDuration = d, d
	runBench(b, cfg)
}

func BenchmarkAblation_Duration75s(b *testing.B)  { benchAblationDuration(b, 75*time.Second) }
func BenchmarkAblation_Duration150s(b *testing.B) { benchAblationDuration(b, 150*time.Second) }
func BenchmarkAblation_Duration300s(b *testing.B) { benchAblationDuration(b, 300*time.Second) }

// The localizer's vote rules, graded on identical data.
func BenchmarkAblation_VoteIntersectionParsimony(b *testing.B) {
	gradeBench(b, ablationConfig(), &baselines.Paper{Rule: core.IntersectionVote})
}
func BenchmarkAblation_VotePureIntersection(b *testing.B) {
	gradeBench(b, ablationConfig(), &baselines.Paper{Rule: core.PureIntersectionVote})
}
func BenchmarkAblation_VoteJaccard(b *testing.B) {
	gradeBench(b, ablationConfig(), &baselines.Paper{Rule: core.JaccardVote})
}

// Per-test alpha vs Benjamini-Hochberg FDR control.
func BenchmarkAblation_DecisionAlpha(b *testing.B) {
	gradeBench(b, ablationConfig(), &baselines.Paper{FDR: 0})
}
func BenchmarkAblation_DecisionFDR(b *testing.B) {
	gradeBench(b, ablationConfig(), &baselines.Paper{FDR: 0.05})
}

// The two-sample decision rule itself.
func BenchmarkAblation_TestGuardedKS(b *testing.B) {
	gradeBench(b, ablationConfig(), &baselines.Paper{Test: stats.GuardedTest{Inner: stats.KSTest{}}})
}
func BenchmarkAblation_TestRawKS(b *testing.B) {
	gradeBench(b, ablationConfig(), &baselines.Paper{Test: stats.KSTest{}})
}
func BenchmarkAblation_TestMannWhitney(b *testing.B) {
	gradeBench(b, ablationConfig(), &baselines.Paper{Test: stats.GuardedTest{Inner: stats.MannWhitneyTest{}}})
}
func BenchmarkAblation_TestPermutation(b *testing.B) {
	gradeBench(b, ablationConfig(), &baselines.Paper{Test: stats.GuardedTest{Inner: stats.PermutationTest{Rounds: 100, Seed: 1}}})
}

// --- Extensions --------------------------------------------------------------

func BenchmarkExtension_FaultTypes(b *testing.B) {
	var crossLatency, matchedLatency float64
	for i := 0; i < b.N; i++ {
		result, err := eval.RunFaultTypeExtension(context.Background(), benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		crossLatency = result.Arm("http-service-unavailable", "latency").Report.Accuracy
		matchedLatency = result.Arm("latency", "latency").Report.Accuracy
	}
	b.ReportMetric(crossLatency, "latency-acc-crosstrained")
	b.ReportMetric(matchedLatency, "latency-acc-matched")
}

func BenchmarkExtension_MultiFault(b *testing.B) {
	var both float64
	for i := 0; i < b.N; i++ {
		result, err := eval.RunMultiFaultExtension(context.Background(), benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		both = float64(result.BothInTop2) / float64(result.Pairs)
	}
	b.ReportMetric(both, "pairs-fully-recovered")
}

func BenchmarkExtension_TraceComparison(b *testing.B) {
	var traceAcc, ourAcc float64
	for i := 0; i < b.N; i++ {
		result, err := eval.RunTraceComparison(context.Background(), benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		traceAcc, ourAcc = result.TraceAccuracy, result.OurAccuracy
	}
	b.ReportMetric(traceAcc, "trace-rca-accuracy")
	b.ReportMetric(ourAcc, "causalfl-accuracy")
}

func BenchmarkExtension_SeedSweep(b *testing.B) {
	var mean, std float64
	for i := 0; i < b.N; i++ {
		cfg := benchOpts.Apply(eval.Config{
			Build:          causalbench.Build,
			Metrics:        metrics.DerivedAll(),
			TestMultiplier: 4,
		})
		result, err := eval.SweepSeeds(context.Background(), cfg, []int64{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
		mean, std = result.MeanAccuracy, result.StdAccuracy
	}
	b.ReportMetric(mean, "mean-accuracy")
	b.ReportMetric(std, "std-accuracy")
}

func BenchmarkExtension_NonstationaryLoad(b *testing.B) {
	var rawAcc, derivedAcc float64
	for i := 0; i < b.N; i++ {
		result, err := arena.RunNonstationaryExtension(context.Background(), benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range result.Rows {
			if row.Test != "raw-ks" {
				continue
			}
			switch row.Preset {
			case metrics.SetRawAll:
				rawAcc = row.Accuracy
			case metrics.SetDerivedAll:
				derivedAcc = row.Accuracy
			}
		}
	}
	b.ReportMetric(rawAcc, "rawks-raw-accuracy")
	b.ReportMetric(derivedAcc, "rawks-derived-accuracy")
}

func BenchmarkExtension_Interference(b *testing.B) {
	var paperAlarm, extAlarm float64
	for i := 0; i < b.N; i++ {
		result, err := eval.RunInterferenceExtension(context.Background(), benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range result.Rows {
			v := 0.0
			if row.AlarmRaised {
				v = 1
			}
			switch row.Preset {
			case metrics.SetDerivedAll:
				paperAlarm = v
			case metrics.SetDerivedExt:
				extAlarm = v
			}
		}
	}
	b.ReportMetric(paperAlarm, "false-alarm-derived-all")
	b.ReportMetric(extAlarm, "false-alarm-derived-ext")
}

func BenchmarkExtension_ContaminatedBaseline(b *testing.B) {
	var clean, dirty float64
	for i := 0; i < b.N; i++ {
		result, err := eval.RunContaminationExtension(context.Background(), benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		clean = result.Arm("clean baseline:").Report.MeanInformativeness
		dirty = result.Arm("dirty  baseline:").Report.MeanInformativeness
	}
	b.ReportMetric(clean, "clean-informativeness")
	b.ReportMetric(dirty, "dirty-informativeness")
}

func BenchmarkExtension_TrainingBudget(b *testing.B) {
	var accHalf, accFull float64
	for i := 0; i < b.N; i++ {
		result, err := eval.RunBudgetExtension(context.Background(), benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		accHalf = result.Arm("4").Report.Accuracy
		accFull = result.Arm("8").Report.Accuracy
	}
	b.ReportMetric(accHalf, "accuracy-half-budget")
	b.ReportMetric(accFull, "accuracy-full-budget")
}

func BenchmarkExtension_Scalability36(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		result, err := eval.RunScalabilityExtension(context.Background(), benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		acc = result.Arms[len(result.Arms)-1].Report.Accuracy
	}
	b.ReportMetric(acc, "accuracy-at-36-services")
}

// --- Microbenchmarks of the hot paths ----------------------------------------

func BenchmarkMicro_KSTest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 19)
	y := make([]float64, 19)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64() + 0.5
	}
	var ks stats.KSTest
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ks.PValue(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_GuardedKSTest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 19)
	y := make([]float64, 19)
	for i := range x {
		x[i] = 5 + rng.NormFloat64()*0.1
		y[i] = 5 + rng.NormFloat64()*0.1
	}
	test := stats.GuardedTest{Inner: stats.KSTest{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := test.PValue(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_SimulatorThroughput(b *testing.B) {
	// Events per second of the discrete-event engine driving CausalBench
	// under the paper's default load.
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(7)
		app, err := causalbench.Build(eng)
		if err != nil {
			b.Fatal(err)
		}
		gen, err := load.NewGenerator(app, load.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := gen.Start(); err != nil {
			b.Fatal(err)
		}
		eng.Run(60 * time.Second) // one virtual minute per iteration
	}
}

func BenchmarkMicro_Localize(b *testing.B) {
	cfg := benchOpts.Apply(eval.Config{
		Build:   causalbench.Build,
		Metrics: metrics.DerivedAll(),
	})
	model, err := eval.Train(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	production, err := eval.CollectProduction(context.Background(), cfg, 1, "B", chaos.Unavailable(), 99)
	if err != nil {
		b.Fatal(err)
	}
	localizer, err := core.NewLocalizer()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := localizer.Localize(context.Background(), model, production); err != nil {
			b.Fatal(err)
		}
	}
}

// equalSets compares two string sets ignoring order.
func equalSets(a, c []string) bool {
	if len(a) != len(c) {
		return false
	}
	m := make(map[string]bool, len(a))
	for _, s := range a {
		m[s] = true
	}
	for _, s := range c {
		if !m[s] {
			return false
		}
	}
	return true
}

// --- Parallel engine (serial vs pooled) ------------------------------------

// benchParallelLearn times Algorithm 1's KS matrix alone (collection done
// once, untimed) at a fixed worker count. The learned model is identical at
// every count; only the wall clock may differ.
func benchParallelLearn(b *testing.B, workers int) {
	b.Helper()
	cfg := benchOpts.Apply(eval.Config{
		Build:   causalbench.Build,
		Metrics: metrics.DerivedAll(),
	})
	data, err := eval.CollectTraining(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	learner, err := core.NewLearner(core.WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := learner.Learn(context.Background(), data.Baseline, data.Interventions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallel_Learn_Serial(b *testing.B) { benchParallelLearn(b, 1) }
func BenchmarkParallel_Learn_Pooled(b *testing.B) { benchParallelLearn(b, runtime.GOMAXPROCS(0)) }

// benchParallelLocalize times Algorithm 2 at a fixed worker count.
func benchParallelLocalize(b *testing.B, workers int) {
	b.Helper()
	cfg := benchOpts.Apply(eval.Config{
		Build:   causalbench.Build,
		Metrics: metrics.DerivedAll(),
	})
	model, err := eval.Train(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	production, err := eval.CollectProduction(context.Background(), cfg, 1, "B", chaos.Unavailable(), 99)
	if err != nil {
		b.Fatal(err)
	}
	localizer, err := core.NewLocalizer(core.WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := localizer.Localize(context.Background(), model, production); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallel_Localize_Serial(b *testing.B) { benchParallelLocalize(b, 1) }
func BenchmarkParallel_Localize_Pooled(b *testing.B) {
	benchParallelLocalize(b, runtime.GOMAXPROCS(0))
}

// benchParallelCampaign times the full train-and-evaluate campaign with
// sharded rounds and per-case localization at a fixed worker count.
func benchParallelCampaign(b *testing.B, workers int) {
	b.Helper()
	var acc float64
	for i := 0; i < b.N; i++ {
		cfg := benchOpts.Apply(eval.Config{
			Build:   causalbench.Build,
			Metrics: metrics.DerivedAll(),
		})
		cfg.Workers = workers
		_, report, err := eval.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		acc = report.Accuracy
	}
	b.ReportMetric(acc, "accuracy")
}

func BenchmarkParallel_Campaign_Serial(b *testing.B) { benchParallelCampaign(b, 1) }
func BenchmarkParallel_Campaign_Pooled(b *testing.B) {
	benchParallelCampaign(b, runtime.GOMAXPROCS(0))
}

// --- Streaming engine ------------------------------------------------------

// streamBenchWorkload is the reference online-localization workload: 64
// services, 8 metrics, a half-way fault, 60 production hops. The same shape
// backs `causalfl bench -stream` and BENCH_stream.json.
func streamBenchWorkload(b *testing.B) (*stream.SynthWorkload, *core.Model) {
	b.Helper()
	w, err := stream.NewSynth(stream.SynthConfig{
		Services: 64, Metrics: 8, BaselineLen: 24, Hops: 60,
		Seed: 42, FaultService: 32, FaultAfter: 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	return w, w.Model()
}

// BenchmarkStream_IncrementalHops drives the streaming localizer one Step per
// hop; every KS statistic is updated in O(window) from the previous hop.
func BenchmarkStream_IncrementalHops(b *testing.B) {
	w, model := streamBenchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl, err := stream.NewLocalizer(model, stream.WithWindow(8))
		if err != nil {
			b.Fatal(err)
		}
		for _, hop := range w.Hops {
			if _, err := sl.Step(context.Background(), 0, hop); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStream_BatchPerTick recomputes from scratch on every hop: rebuild
// the sliding-window snapshot, then run the full batch localizer. This is the
// naive alternative the incremental engine replaces; verdicts are identical.
func BenchmarkStream_BatchPerTick(b *testing.B) {
	w, model := streamBenchWorkload(b)
	const window = 8
	batch, err := core.NewLocalizer()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shadow := make(map[string]map[string][]float64, len(w.MetricNames))
		for _, m := range w.MetricNames {
			shadow[m] = make(map[string][]float64, len(w.Services))
		}
		for _, hop := range w.Hops {
			snap := metrics.NewSnapshot(w.MetricNames, w.Services)
			for _, m := range w.MetricNames {
				for _, svc := range w.Services {
					s := append(shadow[m][svc], hop[m][svc])
					if len(s) > window {
						s = s[len(s)-window:]
					}
					shadow[m][svc] = s
					snap.Data[m][svc] = s
				}
			}
			if _, err := batch.Localize(context.Background(), model, snap); err != nil {
				b.Fatal(err)
			}
		}
	}
}
