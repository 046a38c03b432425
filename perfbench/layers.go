package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"causalfl/internal/serve"
	"causalfl/internal/stream"
)

// The metric catalogue; BENCHMARK.json lists the same names and units.
var endToEnd = map[string]string{
	"setup_s":           "s",
	"campaign_s":        "s",
	"campaign_alloc_mb": "MB",
	"ack_p50_ms":        "ms",
	"verdict_p50_ms":    "ms",
	"max_ticks_per_s":   "1/s",
	"server_rss_mb":     "MB",
}

var perLayer = map[string]string{
	"sim.run_s":            "s",
	"sim.events":           "count",
	"sim.ns_per_event":     "ns",
	"sim.allocs_per_event": "count",
	"sim.alloc_mb":         "MB",
	"apps.build_s":         "s",
	"apps.allocs":          "count",
	"load.start_s":         "s",
	"chaos.inject_s":       "s",
	"telemetry.drain_s":    "s",
	"telemetry.windows_s":  "s",
	"telemetry.samples":    "count",
	"telemetry.allocs":     "count",
	"metrics.derive_s":     "s",
	"metrics.allocs":       "count",
	"core.learn_s":         "s",
	"core.localize_s":      "s",
	"core.allocs":          "count",
	"wire.decode_s":        "s",
	"wire.body_bytes":      "B",
	"serve.ingest_s":       "s",
	"stream.aggregate_s":   "s",
	"stream.tick_s":        "s",
	"stream.hops":          "count",
	"stream.windows":       "count",
	"stream.export_s":      "s",
	"serve.store_save_s":   "s",
	"serve.snapshot_bytes": "B",
	"serve.snapshots":      "count",
	"serve.queue_len_max":  "count",
	"serve.queue_len_mean": "count",
	"serve.shed":           "count",
	"loadgen.late_p99_ms":  "ms",
	// The latency tails swing 40-80% between runs on a shared 2-vCPU VM,
	// more than any regression bound may allow, so they are reported here,
	// without a bound, rather than as end-to-end metrics.
	"loadgen.ack_p99_ms":     "ms",
	"loadgen.verdict_p99_ms": "ms",
	"trace.overhead_frac":    "fraction",
}

// replaySegments is how many segment lengths of the tenant's stream the
// in-process serve replay feeds.
const replaySegments = 2

// tracedLayers is the traced run's in-process part: the workload's campaign
// recomposed from layer calls, then the tenant stream replayed through the
// serving layers. Each is also run untraced, and the difference is the
// tracing overhead.
func (b *bench) tracedLayers(ctx context.Context, in *inputs, tr *tracer) error {
	cfg := in.Train
	if b.w.paper {
		cfg = paperCampaign(b.seed)
	}
	plainC, tracedC, err := tracedCampaign(ctx, cfg, b.w.paper, tr)
	if err != nil {
		return err
	}
	plainS, err := b.replay(ctx, in, nil)
	if err != nil {
		return err
	}
	tracedS, err := b.replay(ctx, in, tr)
	if err != nil {
		return err
	}
	plain := plainC + plainS
	b.set("trace.overhead_frac", (tracedC+tracedS-plain)/plain, "fraction")
	return nil
}

// replay feeds the tenant stream's first replaySegments segments through
// each serving layer in turn: the wire decode, an in-process server's
// ingest handler, and a standalone aggregator and pipeline, snapshotting at
// serve's default cadence through serve's Store. It returns the wall
// seconds.
func (b *bench) replay(ctx context.Context, in *inputs, tr *tracer) (float64, error) {
	dir, err := os.MkdirTemp(b.dir, "replay-")
	if err != nil {
		return 0, err
	}
	store, err := serve.NewStore(filepath.Join(dir, "server"))
	if err != nil {
		return 0, err
	}
	saves, err := serve.NewStore(filepath.Join(dir, "saves"))
	if err != nil {
		return 0, err
	}
	srv, err := serve.NewServer(serve.Options{Store: store})
	if err != nil {
		return 0, err
	}
	defer srv.Kill()
	if err := srv.CreateTenant(ctx, tenantName, in.Tenant, in.Model); err != nil {
		return 0, err
	}
	pipe, err := newPipeline(in)
	if err != nil {
		return 0, err
	}
	agg, err := stream.NewAggregator(time.Duration(in.Tenant.WindowLength), time.Duration(in.Tenant.WindowHop))
	if err != nil {
		return 0, err
	}
	bodies := make([][]byte, replaySegments*segmentTicks)
	for k := range bodies {
		if bodies[k], err = body(in.Stream.tick(k, in.Train.SampleInterval)); err != nil {
			return 0, err
		}
	}
	var seq uint64

	t0 := time.Now()
	for k, blob := range bodies {
		var req struct {
			Ticks []map[string][]stream.SampleState `json:"ticks"`
		}
		sp := tr.begin("wire.decode")
		err := json.Unmarshal(blob, &req)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		tr.count("wire.body_bytes", float64(len(blob)))

		rec := httptest.NewRecorder()
		post := httptest.NewRequest(http.MethodPost, "/v1/tenants/"+tenantName+"/ingest", bytes.NewReader(blob))
		sp = tr.begin("serve.ingest")
		srv.Handler().ServeHTTP(rec, post)
		tr.end(sp)
		if rec.Code != http.StatusAccepted {
			return 0, fmt.Errorf("in-process ingest: status %d: %s", rec.Code, rec.Body)
		}

		tick := decodeTick(req.Ticks[0])
		sp = tr.begin("stream.aggregate")
		_, err = agg.IngestTick(tick)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("stream.tick")
		vs, err := pipe.Tick(ctx, tick)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		seq += uint64(len(vs))

		if (k+1)%serve.DefaultSnapshotEvery == 0 {
			if err := snapshot(tr, saves, in, pipe, seq, uint64(k+1)); err != nil {
				return 0, err
			}
			// Keep the in-process server's queue short so ingest never
			// sheds.
			if err := srv.Quiesce(ctx, tenantName); err != nil {
				return 0, err
			}
		}
	}
	elapsed := time.Since(t0).Seconds()
	st := pipe.Stats()
	tr.count("stream.hops", float64(st.Hops))
	tr.count("stream.windows", float64(st.Aggregator.Windows))
	return elapsed, nil
}

// snapshot exports a pipeline's state and saves it the way a tenant does.
func snapshot(tr *tracer, store *serve.Store, in *inputs, p *stream.Pipeline, seq, processed uint64) error {
	sp := tr.begin("stream.export")
	state := p.ExportState()
	tr.end(sp)
	sp = tr.begin("serve.store_save")
	err := store.Save(&serve.TenantSnapshot{
		Version: serve.SnapshotVersion, Tenant: tenantName, Config: in.Tenant,
		Model: in.Model, State: state, Seq: seq, Processed: processed,
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	if tr != nil {
		fi, err := os.Stat(filepath.Join(store.Dir(), tenantName+".snapshot.json"))
		if err != nil {
			return err
		}
		tr.count("serve.snapshot_bytes", float64(fi.Size()))
		tr.count("serve.snapshots", 1)
	}
	return nil
}

// layerMetrics turns the trace into the per-layer metrics. Campaign-path
// times are self seconds over the one traced campaign; serving-path times
// are mean self seconds per call.
func (b *bench) layerMetrics(tr *tracer) {
	tot := selfTotals(tr.spans)
	secs := func(name string) float64 { return tot[name].Self.Seconds() }
	perCall := func(name string) float64 {
		if lt := tot[name]; lt.Calls > 0 {
			return lt.Self.Seconds() / float64(lt.Calls)
		}
		return 0
	}
	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	events := tr.counts["sim.events"]
	simT := tot["sim.run"]
	b.set("sim.run_s", simT.Self.Seconds(), "s")
	b.set("sim.events", events, "count")
	b.set("sim.ns_per_event", ratio(float64(simT.Self.Nanoseconds()), events), "ns")
	b.set("sim.allocs_per_event", ratio(float64(simT.Allocs), events), "count")
	b.set("sim.alloc_mb", float64(simT.Bytes)/(1<<20), "MB")
	b.set("apps.build_s", secs("apps.build"), "s")
	b.set("apps.allocs", float64(tot["apps.build"].Allocs), "count")
	b.set("load.start_s", secs("load.start"), "s")
	b.set("chaos.inject_s", secs("chaos.inject"), "s")
	b.set("telemetry.drain_s", secs("telemetry.drain"), "s")
	b.set("telemetry.windows_s", secs("telemetry.windows"), "s")
	b.set("telemetry.samples", tr.counts["telemetry.samples"], "count")
	b.set("telemetry.allocs", float64(tot["telemetry.drain"].Allocs+tot["telemetry.windows"].Allocs), "count")
	b.set("metrics.derive_s", secs("metrics.derive"), "s")
	b.set("metrics.allocs", float64(tot["metrics.derive"].Allocs), "count")
	b.set("core.learn_s", secs("core.learn"), "s")
	b.set("core.localize_s", secs("core.localize"), "s")
	b.set("core.allocs", float64(tot["core.learn"].Allocs+tot["core.localize"].Allocs), "count")

	b.set("wire.decode_s", perCall("wire.decode"), "s")
	b.set("wire.body_bytes", ratio(tr.counts["wire.body_bytes"], float64(tot["wire.decode"].Calls)), "B")
	b.set("serve.ingest_s", perCall("serve.ingest"), "s")
	b.set("stream.aggregate_s", perCall("stream.aggregate"), "s")
	b.set("stream.tick_s", perCall("stream.tick"), "s")
	b.set("stream.hops", tr.counts["stream.hops"], "count")
	b.set("stream.windows", tr.counts["stream.windows"], "count")
	b.set("stream.export_s", perCall("stream.export"), "s")
	b.set("serve.store_save_s", perCall("serve.store_save"), "s")
	b.set("serve.snapshot_bytes", ratio(tr.counts["serve.snapshot_bytes"], tr.counts["serve.snapshots"]), "B")
	b.set("serve.snapshots", tr.counts["serve.snapshots"], "count")
}

// finish keeps exactly the mode's catalogue and checks every value is a
// finite number.
func (b *bench) finish() error {
	want := endToEnd
	if b.trace {
		want = perLayer
	}
	for name := range b.res.Metrics {
		if _, ok := want[name]; !ok {
			delete(b.res.Metrics, name)
		}
	}
	for name, unit := range want {
		m, ok := b.res.Metrics[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", name, m.Value)
		case m.Unit != unit:
			return fmt.Errorf("metric %s has unit %s, the catalogue says %s", name, m.Unit, unit)
		}
	}
	return nil
}
