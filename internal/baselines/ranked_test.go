package baselines

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"causalfl/internal/apps"
	"causalfl/internal/metrics"
)

// chainFixture builds a 4-service call chain a→b→c→d with correlated load:
// a shared demand signal drives every service, the faulty service adds its
// own large shift, and the services downstream of the fault (in causal
// terms: the callees the fault starves) shift by a damped amount. This is
// the regime the graph-based competitors are designed for.
type chainFixture struct {
	rng *rand.Rand
}

var chainServices = []string{"a", "b", "c", "d"}
var chainEdges = []apps.Edge{{From: "a", To: "b"}, {From: "b", To: "c"}, {From: "c", To: "d"}}

func (f *chainFixture) snapshot(fault string, magnitude float64) *metrics.Snapshot {
	ms := []string{"latency", "cpu"}
	snap := metrics.NewSnapshot(ms, chainServices)
	depth := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}
	for _, m := range ms {
		for _, svc := range chainServices {
			series := make([]float64, 40)
			for i := range series {
				demand := math.Sin(float64(i)/3) * 2 // shared load signal
				v := 10 + demand + f.rng.NormFloat64()*0.3
				if fault != "" {
					// The fault's own service shifts hardest; its callers
					// (upstream in the chain) inherit a damped shift, the
					// way latency propagates back toward the entry point.
					if svc == fault {
						v += magnitude
					} else if depth[svc] < depth[fault] {
						v += magnitude * 0.5
					}
				}
				series[i] = v
			}
			snap.Data[m][svc] = series
		}
	}
	return snap
}

func rankOf(ranked []Scored, svc string) int {
	for i, s := range ranked {
		if s.Service == svc {
			return i
		}
	}
	return -1
}

func TestCausalRCABlamesDeviatingService(t *testing.T) {
	f := &chainFixture{rng: rand.New(rand.NewSource(11))}
	tech := &CausalRCA{}
	if err := tech.Train(ctx, f.snapshot("", 0), nil); err != nil {
		t.Fatal(err)
	}
	ranked, err := tech.LocalizeRanked(ctx, f.snapshot("c", 12))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != len(chainServices) {
		t.Fatalf("ranking covers %d services, want %d", len(ranked), len(chainServices))
	}
	if r := rankOf(ranked, "c"); r > 1 {
		t.Errorf("faulty service c ranked %d in %v", r, ranked)
	}
	// The set verdict is the thresholded ranking with an all-services
	// fallback; either way it must be sorted and non-empty.
	cands, err := tech.Localize(ctx, f.snapshot("c", 12))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || !sort.StringsAreSorted(cands) {
		t.Errorf("candidate set %v not sorted/non-empty", cands)
	}
}

func TestCausalRCASurvivesDegradedSeries(t *testing.T) {
	f := &chainFixture{rng: rand.New(rand.NewSource(12))}
	tech := &CausalRCA{}
	if err := tech.Train(ctx, f.snapshot("", 0), nil); err != nil {
		t.Fatal(err)
	}
	prod := f.snapshot("b", 12)
	// Poison the production series with NaN/Inf the way corrupted scrapes
	// do; the scorer must stay finite.
	prod.Data["latency"]["a"][3] = math.NaN()
	prod.Data["cpu"]["d"][7] = math.Inf(1)
	ranked, err := tech.LocalizeRanked(ctx, prod)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ranked {
		if math.IsNaN(s.Score) || math.IsInf(s.Score, 0) {
			t.Fatalf("non-finite score for %s in %v", s.Service, ranked)
		}
	}
}

func TestFitOLSRecoversLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 200
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1[i] = rng.NormFloat64()
		x2[i] = rng.NormFloat64()
		y[i] = 2 + 3*x1[i] - 1.5*x2[i] + rng.NormFloat64()*0.01
	}
	w := fitOLS(y, [][]float64{x1, x2})
	want := []float64{2, 3, -1.5}
	for i, wi := range want {
		if math.Abs(w[i]-wi) > 0.05 {
			t.Errorf("coef[%d] = %.3f, want %.3f", i, w[i], wi)
		}
	}
	// Rank-deficient design (duplicate regressor) must fall back to the
	// mean-only model, not blow up.
	w = fitOLS(y, [][]float64{x1, x1})
	if len(w) != 3 || math.IsNaN(w[0]) {
		t.Errorf("degenerate fit = %v", w)
	}
}

func TestPCGraphLearnsChainSkeleton(t *testing.T) {
	f := &chainFixture{rng: rand.New(rand.NewSource(14))}
	tech := &PCGraph{}
	if err := tech.Train(ctx, f.snapshot("", 0), nil); err != nil {
		t.Fatal(err)
	}
	// All four services share the demand signal, so the skeleton must be
	// non-trivial: every service keeps at least one neighbor.
	for _, svc := range chainServices {
		if len(tech.Neighbors(svc)) == 0 {
			t.Errorf("service %s isolated in learned skeleton", svc)
		}
	}
	ranked, err := tech.LocalizeRanked(ctx, f.snapshot("b", 12))
	if err != nil {
		t.Fatal(err)
	}
	// b and its upstream a both shift; the anomalous-subgraph centrality
	// must put the faulty pair ahead of the untouched tail.
	if rankOf(ranked, "b") > 1 {
		t.Errorf("faulty service b ranked %d in %v", rankOf(ranked, "b"), ranked)
	}
	if ranked[len(ranked)-1].Service != "c" && ranked[len(ranked)-1].Service != "d" {
		t.Errorf("healthy tail not last: %v", ranked)
	}
}

func TestPCGraphLocalizeFallsBackWhenHealthy(t *testing.T) {
	f := &chainFixture{rng: rand.New(rand.NewSource(15))}
	tech := &PCGraph{}
	if err := tech.Train(ctx, f.snapshot("", 0), nil); err != nil {
		t.Fatal(err)
	}
	got, err := tech.Localize(ctx, f.snapshot("", 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(chainServices) {
		t.Errorf("healthy production should degenerate to all services, got %v", got)
	}
}

func TestRandomWalkFollowsAnomalies(t *testing.T) {
	f := &chainFixture{rng: rand.New(rand.NewSource(16))}
	tech := &RandomWalk{Edges: chainEdges}
	if err := tech.Train(ctx, f.snapshot("", 0), nil); err != nil {
		t.Fatal(err)
	}
	// Fault in c: c shifts hard, a and b inherit damped shifts. Walkers
	// teleport to the anomalous set and drift along call direction toward
	// c, so c must outrank the healthy leaf d and sit in the top 2.
	ranked, err := tech.LocalizeRanked(ctx, f.snapshot("c", 12))
	if err != nil {
		t.Fatal(err)
	}
	if rankOf(ranked, "c") > 1 {
		t.Errorf("faulty service c ranked %d in %v", rankOf(ranked, "c"), ranked)
	}
	if rankOf(ranked, "c") > rankOf(ranked, "d") {
		t.Errorf("healthy leaf d outranks faulty c: %v", ranked)
	}
	// Scores form a probability distribution.
	sum := 0.0
	for _, s := range ranked {
		sum += s.Score
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("stationary distribution sums to %f", sum)
	}
}

func TestRandomWalkDeterministic(t *testing.T) {
	mk := func() []Scored {
		f := &chainFixture{rng: rand.New(rand.NewSource(17))}
		tech := &RandomWalk{Edges: chainEdges}
		if err := tech.Train(ctx, f.snapshot("", 0), nil); err != nil {
			t.Fatal(err)
		}
		ranked, err := tech.LocalizeRanked(ctx, f.snapshot("b", 12))
		if err != nil {
			t.Fatal(err)
		}
		return ranked
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("rankings differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRankedOrSetsLiftsSetTechniques(t *testing.T) {
	f := &chainFixture{rng: rand.New(rand.NewSource(18))}
	tech := &TopologyRCA{Edges: chainEdges}
	if err := tech.Train(ctx, f.snapshot("", 0), nil); err != nil {
		t.Fatal(err)
	}
	prod := f.snapshot("c", 12)
	cands, err := tech.Localize(ctx, prod)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := RankedOrSets(ctx, tech, prod, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != len(cands) {
		t.Fatalf("lifted ranking %v does not cover set %v", ranked, cands)
	}
	for i, s := range ranked {
		if s.Score != 1 || s.Service != cands[i] {
			t.Fatalf("lifted ranking %v disagrees with sorted set %v", ranked, cands)
		}
	}
}

func TestRankedLeadingTieGroupMatchesSet(t *testing.T) {
	// For score-derived set verdicts, Localize must equal the leading tie
	// group of LocalizeRanked — the arena's top-1 accounting relies on it.
	for _, tech := range []RankedTechnique{&Paper{}, &SingleWorld{}, &Observational{}} {
		f2 := &fixture{rng: rand.New(rand.NewSource(19))}
		f2.train(t, tech)
		prod := f2.snapshot(f2.worlds()["x"])
		cands, err := tech.Localize(ctx, prod)
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := tech.LocalizeRanked(ctx, prod)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranked) == 0 {
			t.Fatalf("%s: empty ranking", tech.Name())
		}
		var lead []string
		for _, s := range ranked {
			if s.Score == ranked[0].Score {
				lead = append(lead, s.Service)
			}
		}
		sort.Strings(lead)
		if len(lead) == len(cands) {
			for i := range lead {
				if lead[i] != cands[i] {
					t.Errorf("%s: tie group %v != set %v", tech.Name(), lead, cands)
				}
			}
		}
	}
}

func TestNewCompetitorNames(t *testing.T) {
	for _, tc := range []struct {
		tech Technique
		want string
	}{
		{&CausalRCA{}, "causalrca-regression"},
		{&PCGraph{}, "pc-single-graph"},
		{&RandomWalk{}, "randomwalk-pagerank"},
	} {
		if got := tc.tech.Name(); got != tc.want {
			t.Errorf("Name = %q, want %q", got, tc.want)
		}
	}
}

func TestNewCompetitorsLocalizeBeforeTrain(t *testing.T) {
	f := &chainFixture{rng: rand.New(rand.NewSource(20))}
	snap := f.snapshot("", 0)
	for _, tech := range []RankedTechnique{&CausalRCA{}, &PCGraph{}, &RandomWalk{Edges: chainEdges}} {
		if _, err := tech.Localize(ctx, snap); err == nil {
			t.Errorf("%s: Localize before Train accepted", tech.Name())
		}
		if _, err := tech.LocalizeRanked(ctx, snap); err == nil {
			t.Errorf("%s: LocalizeRanked before Train accepted", tech.Name())
		}
	}
}
