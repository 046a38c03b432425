package load

import (
	"math"
	"testing"
	"time"

	"causalfl/internal/apps"
	"causalfl/internal/sim"
)

// testApp builds a one-service app with two weighted flows.
func testApp(t *testing.T, capacity int, proc time.Duration) *apps.App {
	t.Helper()
	eng := sim.NewEngine(9)
	cluster := sim.NewCluster(eng)
	cluster.MustAddService(sim.ServiceConfig{
		Name:     "svc",
		Capacity: capacity,
		Endpoints: []sim.Endpoint{
			{Name: "fast", Steps: []sim.Step{sim.Compute{Mean: proc}}},
			{Name: "slow", Steps: []sim.Step{sim.Compute{Mean: proc}}},
		},
	})
	app := &apps.App{
		Name:    "test",
		Cluster: cluster,
		Flows: []apps.Flow{
			{Name: "fast", Entry: "svc", Endpoint: "fast", Weight: 3},
			{Name: "slow", Entry: "svc", Endpoint: "slow", Weight: 1},
		},
		FaultTargets: []string{"svc"},
	}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	return app
}

func TestOpenLoopRate(t *testing.T) {
	app := testApp(t, 64, time.Millisecond)
	gen, err := NewGenerator(app, Config{Mode: OpenLoop, RatePerSecond: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(); err != nil {
		t.Fatal(err)
	}
	app.Cluster.Engine().Run(60 * time.Second)
	stats := gen.Stats()
	// Poisson(50/s) over 60s: expect ~3000 ± a few hundred.
	if stats.Issued < 2700 || stats.Issued > 3300 {
		t.Fatalf("issued %d requests in 60s at 50rps, want ~3000", stats.Issued)
	}
	if stats.Failed != 0 {
		t.Fatalf("%d requests failed on a healthy service", stats.Failed)
	}
}

func TestOpenLoopMultiplier(t *testing.T) {
	app := testApp(t, 256, time.Millisecond)
	gen, err := NewGenerator(app, Config{Mode: OpenLoop, RatePerSecond: 25, Multiplier: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(); err != nil {
		t.Fatal(err)
	}
	app.Cluster.Engine().Run(30 * time.Second)
	got := gen.Stats().Issued
	if got < 2600 || got > 3400 {
		t.Fatalf("issued %d in 30s at 25rps x4, want ~3000", got)
	}
}

func TestFlowWeights(t *testing.T) {
	app := testApp(t, 256, time.Millisecond)
	gen, err := NewGenerator(app, Config{Mode: OpenLoop, RatePerSecond: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(); err != nil {
		t.Fatal(err)
	}
	app.Cluster.Engine().Run(60 * time.Second)
	stats := gen.Stats()
	ratio := float64(stats.PerFlow["fast"]) / float64(stats.PerFlow["slow"])
	if math.Abs(ratio-3) > 0.6 {
		t.Fatalf("fast/slow ratio = %.2f, want ~3 (weights 3:1)", ratio)
	}
}

func TestClosedLoopUsersAreBlocking(t *testing.T) {
	// One user with think time ~100ms against a fast service issues at
	// most ~1000/(think/ms) requests; it must never pipeline.
	app := testApp(t, 1, 50*time.Millisecond)
	gen, err := NewGenerator(app, Config{Mode: ClosedLoop, Users: 1, ThinkTime: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(); err != nil {
		t.Fatal(err)
	}
	app.Cluster.Engine().Run(10 * time.Second)
	stats := gen.Stats()
	// Each cycle is >= 50ms proc + ~50ms think => at most ~100 requests.
	if stats.Issued > 120 {
		t.Fatalf("single closed-loop user issued %d requests in 10s, impossible without pipelining", stats.Issued)
	}
	if stats.Issued < 50 {
		t.Fatalf("single closed-loop user issued only %d requests", stats.Issued)
	}
}

func TestClosedLoopFailFastSpeedsUsersUp(t *testing.T) {
	// The Fig. 2 mechanism in miniature: with the service unavailable,
	// closed-loop users cycle faster and issue more requests.
	run := func(faulted bool) uint64 {
		app := testApp(t, 1, 50*time.Millisecond)
		if faulted {
			svc, _ := app.Cluster.Service("svc")
			svc.SetUnavailable(true)
		}
		gen, err := NewGenerator(app, Config{Mode: ClosedLoop, Users: 5, ThinkTime: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := gen.Start(); err != nil {
			t.Fatal(err)
		}
		app.Cluster.Engine().Run(10 * time.Second)
		return gen.Stats().Issued
	}
	healthy, faulted := run(false), run(true)
	if faulted <= healthy {
		t.Fatalf("fail-fast did not speed users up: healthy=%d faulted=%d", healthy, faulted)
	}
}

func TestGeneratorStop(t *testing.T) {
	app := testApp(t, 16, time.Millisecond)
	gen, err := NewGenerator(app, Config{Mode: OpenLoop, RatePerSecond: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(); err != nil {
		t.Fatal(err)
	}
	eng := app.Cluster.Engine()
	eng.Run(5 * time.Second)
	gen.Stop()
	at := gen.Stats().Issued
	eng.Run(10 * time.Second)
	after := gen.Stats().Issued
	if after > at+1 {
		t.Fatalf("generator kept issuing after Stop (%d -> %d)", at, after)
	}
}

func TestGeneratorValidation(t *testing.T) {
	app := testApp(t, 1, time.Millisecond)
	cases := []Config{
		{Mode: Mode(99)},
		{RatePerSecond: -1},
		{Users: -1},
		{ThinkTime: -time.Second},
		{Multiplier: -2},
		{Multiplier: math.NaN()},
		{Multiplier: math.Inf(1)},
	}
	for i, cfg := range cases {
		if _, err := NewGenerator(app, cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
	if _, err := NewGenerator(nil, Config{}); err == nil {
		t.Error("nil app accepted")
	}
	gen, err := NewGenerator(app, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Config().RatePerSecond != DefaultRate || gen.Config().Users != DefaultUsers {
		t.Errorf("defaults not applied: %+v", gen.Config())
	}
	if err := gen.Start(); err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(); err == nil {
		t.Error("double Start accepted")
	}
}

func TestDiurnalProfileModulatesRate(t *testing.T) {
	app := testApp(t, 256, time.Millisecond)
	gen, err := NewGenerator(app, Config{
		Mode:          OpenLoop,
		RatePerSecond: 100,
		Diurnal:       &DiurnalProfile{Period: 2 * time.Minute, Amplitude: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(); err != nil {
		t.Fatal(err)
	}
	eng := app.Cluster.Engine()
	// First quarter period (peak of the sine): rate ~ up to 180/s.
	eng.Run(30 * time.Second)
	peak := gen.Stats().Issued
	// Third quarter (trough): rate down to ~20/s.
	eng.Run(60 * time.Second)
	eng.Run(90 * time.Second)
	trough := gen.Stats().Issued - peak
	_ = trough
	eng.Run(2 * time.Minute)
	total := gen.Stats().Issued
	// Over one full period the mean rate is the base rate: ~12000 ± noise.
	if total < 10500 || total > 13500 {
		t.Fatalf("one diurnal period issued %d requests, want ~12000 (mean preserved)", total)
	}
	// The first quarter (rising peak) must clearly out-pace a steady 25%%
	// share of the period.
	if float64(peak) < float64(total)*0.25*1.2 {
		t.Fatalf("peak quarter issued %d of %d; no visible modulation", peak, total)
	}
}

func TestDiurnalValidation(t *testing.T) {
	app := testApp(t, 1, time.Millisecond)
	if _, err := NewGenerator(app, Config{Diurnal: &DiurnalProfile{Period: 0, Amplitude: 0.5}}); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewGenerator(app, Config{Diurnal: &DiurnalProfile{Period: time.Minute, Amplitude: 1.0}}); err == nil {
		t.Error("amplitude 1.0 accepted")
	}
	if _, err := NewGenerator(app, Config{Diurnal: &DiurnalProfile{Period: time.Minute, Amplitude: -0.1}}); err == nil {
		t.Error("negative amplitude accepted")
	}
}

func TestStatsIsACopy(t *testing.T) {
	app := testApp(t, 16, time.Millisecond)
	gen, err := NewGenerator(app, Config{Mode: OpenLoop, RatePerSecond: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(); err != nil {
		t.Fatal(err)
	}
	app.Cluster.Engine().Run(time.Second)
	s := gen.Stats()
	s.PerFlow["fast"] = 999999
	if gen.Stats().PerFlow["fast"] == 999999 {
		t.Fatal("Stats exposes internal map")
	}
}

func TestSuccessLatencyStats(t *testing.T) {
	app := testApp(t, 64, 20*time.Millisecond)
	gen, err := NewGenerator(app, Config{Mode: OpenLoop, RatePerSecond: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(); err != nil {
		t.Fatal(err)
	}
	app.Cluster.Engine().Run(30 * time.Second)
	stats := gen.Stats()
	if stats.Succeeded == 0 {
		t.Fatal("no succeeded requests")
	}
	mean := stats.MeanLatency()
	// Exponential compute with 20ms mean, effectively no queueing at this
	// rate and capacity: the client-side mean must sit near 20ms.
	if mean < 10*time.Millisecond || mean > 40*time.Millisecond {
		t.Fatalf("mean success latency %v, want ~20ms", mean)
	}
	if got := stats.Availability(); got != 1 {
		t.Fatalf("availability %v with zero failures, want 1", got)
	}
	if (Stats{}).MeanLatency() != 0 {
		t.Error("zero-value Stats should report zero mean latency")
	}
	if (Stats{}).Availability() != 1 {
		t.Error("zero-value Stats should report availability 1")
	}
}
