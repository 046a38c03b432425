// Package load generates user traffic against a benchmark application,
// standing in for the paper's Locust-based load-generation service (§V-A).
//
// Two modes are provided:
//
//   - Open loop: requests arrive as a Poisson process at a configured total
//     rate regardless of response times ("maintain a request throughput of
//     fifty"). Scaling the multiplier reproduces the paper's 1×/4× sweep.
//
//   - Closed loop: a fixed population of virtual users issues one request at
//     a time with think-time pauses, exactly like Locust's user model. This
//     mode exhibits the Fig. 2 queuing confounder: a fail-fast fault on one
//     branch speeds the users up and shifts load onto the other branch.
package load

import (
	"fmt"
	"math"
	"time"

	"causalfl/internal/apps"
	"causalfl/internal/sim"
)

// ClientName is the caller name used for generated requests. It is not a
// registered service, so the generator itself produces no telemetry —
// matching the paper, which monitors only the application's microservices.
const ClientName = "loadgen"

// Mode selects how load is generated.
type Mode int

const (
	// OpenLoop issues requests at a fixed Poisson rate.
	OpenLoop Mode = iota + 1
	// ClosedLoop emulates a fixed population of blocking virtual users.
	ClosedLoop
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case OpenLoop:
		return "open-loop"
	case ClosedLoop:
		return "closed-loop"
	default:
		return "unknown"
	}
}

// Config tunes a Generator.
type Config struct {
	// Mode selects open- or closed-loop generation. Zero means OpenLoop.
	Mode Mode
	// RatePerSecond is the total open-loop request rate across all flows
	// at multiplier 1. Zero means DefaultRate.
	RatePerSecond float64
	// Users is the closed-loop virtual user count at multiplier 1. Zero
	// means DefaultUsers.
	Users int
	// ThinkTime is the closed-loop pause between a response and the next
	// request. Zero means DefaultThinkTime.
	ThinkTime time.Duration
	// Multiplier scales the load (the paper's 1× and 4× configurations).
	// Zero means 1.
	Multiplier float64
	// Diurnal, when set, modulates the open-loop arrival rate
	// sinusoidally around its mean — the nonstationary production traffic
	// of the §III-C confounder discussion. Ignored in closed-loop mode.
	Diurnal *DiurnalProfile
}

// DiurnalProfile describes sinusoidal load modulation:
// rate(t) = base · (1 + Amplitude·sin(2πt/Period)).
type DiurnalProfile struct {
	// Period is the oscillation period.
	Period time.Duration
	// Amplitude is the relative swing, in [0, 1).
	Amplitude float64
}

// Defaults matching the paper's testbed: ten users maintaining a throughput
// of fifty requests per second.
const (
	DefaultRate      = 50.0
	DefaultUsers     = 10
	DefaultThinkTime = 100 * time.Millisecond
)

// Stats aggregates the client-side view of generated traffic.
type Stats struct {
	Issued    uint64
	Succeeded uint64
	Failed    uint64
	// SuccessLatency accumulates the end-to-end latency of succeeded
	// requests. Together with Succeeded it yields the client-side mean —
	// the latency an operator's SLO actually measures, unpolluted by
	// fail-fast errors that return quickly.
	SuccessLatency time.Duration
	// PerFlow counts issued requests by flow name.
	PerFlow map[string]uint64
}

// Availability is the fraction of completed requests that succeeded.
// It reports 1 when nothing completed yet.
func (s Stats) Availability() float64 {
	completed := s.Succeeded + s.Failed
	if completed == 0 {
		return 1
	}
	return float64(s.Succeeded) / float64(completed)
}

// MeanLatency is the mean end-to-end latency over succeeded requests, zero
// when none succeeded.
func (s Stats) MeanLatency() time.Duration {
	if s.Succeeded == 0 {
		return 0
	}
	return s.SuccessLatency / time.Duration(s.Succeeded)
}

// Generator drives traffic for one application instance.
type Generator struct {
	app     *apps.App
	cfg     Config
	flows   []apps.Flow
	weights []float64
	total   float64
	stats   Stats
	running bool
}

// NewGenerator validates cfg against app and returns a ready (not yet
// started) generator.
func NewGenerator(app *apps.App, cfg Config) (*Generator, error) {
	if app == nil {
		return nil, fmt.Errorf("load: nil app")
	}
	if len(app.Flows) == 0 {
		return nil, fmt.Errorf("load: app %s has no flows", app.Name)
	}
	if cfg.Mode == 0 {
		cfg.Mode = OpenLoop
	}
	if cfg.Mode != OpenLoop && cfg.Mode != ClosedLoop {
		return nil, fmt.Errorf("load: unknown mode %d", cfg.Mode)
	}
	if cfg.RatePerSecond == 0 {
		cfg.RatePerSecond = DefaultRate
	}
	if cfg.RatePerSecond < 0 {
		return nil, fmt.Errorf("load: negative rate %v", cfg.RatePerSecond)
	}
	if cfg.Users == 0 {
		cfg.Users = DefaultUsers
	}
	if cfg.Users < 0 {
		return nil, fmt.Errorf("load: negative users %d", cfg.Users)
	}
	if cfg.ThinkTime == 0 {
		cfg.ThinkTime = DefaultThinkTime
	}
	if cfg.ThinkTime < 0 {
		return nil, fmt.Errorf("load: negative think time %v", cfg.ThinkTime)
	}
	if cfg.Multiplier == 0 {
		cfg.Multiplier = 1
	}
	// An infinite multiplier makes every Poisson gap zero and a NaN one
	// makes it undefined; either stalls the engine at one virtual instant.
	if !(cfg.Multiplier > 0 && cfg.Multiplier <= math.MaxFloat64) {
		return nil, fmt.Errorf("load: multiplier %v is not a positive finite number", cfg.Multiplier)
	}
	if d := cfg.Diurnal; d != nil {
		if d.Period <= 0 {
			return nil, fmt.Errorf("load: diurnal profile needs a positive period, got %v", d.Period)
		}
		if d.Amplitude < 0 || d.Amplitude >= 1 {
			return nil, fmt.Errorf("load: diurnal amplitude must be in [0,1), got %v", d.Amplitude)
		}
	}
	g := &Generator{
		app:   app,
		cfg:   cfg,
		flows: append([]apps.Flow(nil), app.Flows...),
		stats: Stats{PerFlow: make(map[string]uint64, len(app.Flows))},
	}
	g.weights = make([]float64, len(g.flows))
	for i, f := range g.flows {
		g.total += f.Weight
		g.weights[i] = g.total
	}
	return g, nil
}

// Config returns the effective (defaulted) configuration.
func (g *Generator) Config() Config { return g.cfg }

// Start begins generating traffic. It may be called once.
func (g *Generator) Start() error {
	if g.running {
		return fmt.Errorf("load: generator already started")
	}
	g.running = true
	switch g.cfg.Mode {
	case OpenLoop:
		g.scheduleNextArrival()
	case ClosedLoop:
		users := int(float64(g.cfg.Users) * g.cfg.Multiplier)
		if users < 1 {
			users = 1
		}
		eng := g.app.Cluster.Engine()
		for u := 0; u < users; u++ {
			// Stagger user start over one think time to avoid a
			// synchronized stampede.
			offset := time.Duration(eng.Rand().Int63n(int64(g.cfg.ThinkTime) + 1))
			eng.After(offset, g.userLoop)
		}
	}
	return nil
}

// Stop halts traffic generation after in-flight callbacks settle.
func (g *Generator) Stop() { g.running = false }

// Stats returns a copy of the client-side counters.
func (g *Generator) Stats() Stats {
	out := g.stats
	out.PerFlow = make(map[string]uint64, len(g.stats.PerFlow))
	for k, v := range g.stats.PerFlow {
		out.PerFlow[k] = v
	}
	return out
}

// pickFlow samples a flow proportionally to its weight.
func (g *Generator) pickFlow() apps.Flow {
	x := g.app.Cluster.Engine().Rand().Float64() * g.total
	for i, cum := range g.weights {
		if x < cum {
			return g.flows[i]
		}
	}
	return g.flows[len(g.flows)-1]
}

// issue sends one request for flow and records the outcome.
func (g *Generator) issue(flow apps.Flow, done func(ok bool)) {
	g.stats.Issued++
	g.stats.PerFlow[flow.Name]++
	eng := g.app.Cluster.Engine()
	start := eng.Now()
	g.app.Cluster.Call(ClientName, flow.Entry, flow.Endpoint, func(res sim.Result) {
		if res.Err != nil {
			g.stats.Failed++
		} else {
			g.stats.Succeeded++
			g.stats.SuccessLatency += time.Duration(eng.Now() - start)
		}
		if done != nil {
			done(res.Err == nil)
		}
	})
}

// currentRate evaluates the instantaneous arrival rate, applying the
// diurnal modulation if configured.
func (g *Generator) currentRate() float64 {
	rate := g.cfg.RatePerSecond * g.cfg.Multiplier
	if d := g.cfg.Diurnal; d != nil {
		t := g.app.Cluster.Engine().Now()
		phase := 2 * math.Pi * float64(t) / float64(d.Period)
		rate *= 1 + d.Amplitude*math.Sin(phase)
	}
	return rate
}

// scheduleNextArrival draws the next Poisson inter-arrival gap at the
// instantaneous rate and issues a request when it elapses.
func (g *Generator) scheduleNextArrival() {
	rate := g.currentRate()
	if rate <= 0 {
		return
	}
	eng := g.app.Cluster.Engine()
	gap := time.Duration(eng.Rand().ExpFloat64() / rate * float64(time.Second))
	eng.After(gap, func() {
		if !g.running {
			return
		}
		g.issue(g.pickFlow(), nil)
		g.scheduleNextArrival()
	})
}

// userLoop runs one closed-loop virtual user: request, wait, think, repeat.
func (g *Generator) userLoop() {
	if !g.running {
		return
	}
	g.issue(g.pickFlow(), func(bool) {
		eng := g.app.Cluster.Engine()
		think := time.Duration(eng.Rand().Int63n(int64(g.cfg.ThinkTime)) + int64(g.cfg.ThinkTime)/2)
		eng.After(think, g.userLoop)
	})
}
