package stream

import (
	"context"
	"fmt"
	"sort"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/parallel"
	"causalfl/internal/stats"
)

// pairState is the per-(metric, service) streaming state.
type pairState struct {
	// baseLen is the baseline series length.
	baseLen int
	// ks is the incremental state; nil when the pair has no usable baseline
	// (empty series), in which case the pair can never be tested.
	ks *stats.IncrementalKS
	// seen records whether the pair ever received a production value. A
	// batch snapshot only contains pairs that were observed; an unseen pair
	// is skipped exactly as a missing snapshot entry would be.
	seen bool

	// Incremental-detection bookkeeping. svc, mi and shard
	// locate the pair; dirty marks it for the next flush; testable, pval and
	// anom cache its contribution to the per-metric detection, valid since
	// the last flush. nextTestable and nextPval stage the recomputation: the
	// parallel phase writes them, the serial merge applies them.
	svc          string
	mi           int
	shard        int
	dirty        bool
	testable     bool
	anom         bool
	pval         float64
	nextTestable bool
	nextPval     float64
}

// metricAgg is one metric's cached detection aggregate: the
// current family size and the sorted anomalous set, maintained incrementally
// as pair states flip.
type metricAgg struct {
	tested int
	anom   []string // sorted; never handed out directly
}

// insertAnom adds svc to the sorted anomalous set.
func (a *metricAgg) insertAnom(svc string) {
	i := sort.SearchStrings(a.anom, svc)
	a.anom = append(a.anom, "")
	copy(a.anom[i+1:], a.anom[i:])
	a.anom[i] = svc
}

// removeAnom drops svc from the sorted anomalous set.
func (a *metricAgg) removeAnom(svc string) {
	i := sort.SearchStrings(a.anom, svc)
	if i < len(a.anom) && a.anom[i] == svc {
		a.anom = append(a.anom[:i], a.anom[i+1:]...)
	}
}

// Detector maintains sliding-window anomaly detection over a fixed baseline:
// the streaming counterpart of core.Detect. Feed it production window-values
// with Observe/ObserveHop and ask for the current anomalous set with Detect;
// the answer is byte-identical to tolerant core.Detect on a snapshot holding
// each pair's last Window values.
//
// Detection has the batch localizer's semantics — tolerant, guarded KS,
// per-test alpha or BH-FDR — and is incremental end to end: pair states are
// hash-sharded, Observe only marks a pair dirty, and the flush before the
// next Detect recomputes exactly the dirty pairs (fanned across the worker
// pool by shard) before merging their deltas into per-metric aggregates. A
// hop that touches T pairs costs O(T) test evaluations regardless of how
// many services exist.
//
// A Detector is not safe for concurrent use. Parallelism lives inside the
// flush (the shard fan-out, WithWorkers).
type Detector struct {
	baseline *metrics.Snapshot
	window   int
	alpha    float64
	fdr      float64
	minSamp  int
	workers  int
	// states is metric -> service -> state, populated eagerly at
	// construction for every baseline-backed pair so each baseline series
	// is sorted (or sketched) exactly once, up front.
	states map[string]map[string]*pairState

	// Incremental state: dirty pairs per shard and cached per-metric
	// aggregates, brought current by flush.
	shards      int
	dirty       [][]*pairState // per shard: pairs awaiting recomputation
	byMetric    [][]*pairState // tracked pairs per metric, baseline.Services order
	metricIndex map[string]int // metric name -> index into byMetric/aggs
	aggs        []metricAgg
	fdrTouched  []bool    // metrics needing a family re-decision (FDR mode)
	pvalBuf     []float64 // scratch for the FDR family decision
}

// NewDetector builds a Detector over the given baseline snapshot. Every
// baseline series is copied and sorted once here; no per-hop call sorts
// anything afterwards. The zero option set means: DefaultWindow,
// core.DefaultAlpha, serial execution.
func NewDetector(baseline *metrics.Snapshot, opts ...Option) (*Detector, error) {
	s, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	return newDetector(baseline, s)
}

// newDetector builds a Detector from resolved settings (shared with
// newLocalizer, which applies the option list once for the whole stack).
func newDetector(baseline *metrics.Snapshot, s settings) (*Detector, error) {
	if baseline == nil {
		return nil, fmt.Errorf("stream: nil baseline snapshot")
	}
	d := &Detector{
		baseline:    baseline,
		window:      s.window,
		alpha:       s.alpha,
		fdr:         s.fdr,
		minSamp:     s.minSamples,
		workers:     s.workers,
		shards:      s.shards,
		states:      make(map[string]map[string]*pairState, len(baseline.Metrics)),
		dirty:       make([][]*pairState, s.shards),
		byMetric:    make([][]*pairState, len(baseline.Metrics)),
		metricIndex: make(map[string]int, len(baseline.Metrics)),
		aggs:        make([]metricAgg, len(baseline.Metrics)),
		fdrTouched:  make([]bool, len(baseline.Metrics)),
	}
	// Resolve defaults exactly as core.Detect does.
	if d.alpha == 0 && d.fdr == 0 {
		d.alpha = core.DefaultAlpha
	}
	if d.minSamp < 1 {
		d.minSamp = core.DefaultMinSamples
	}
	for mi, m := range baseline.Metrics {
		bySvc := make(map[string]*pairState, len(baseline.Services))
		for _, svc := range baseline.Services {
			series, ok := baseline.SeriesOK(m, svc)
			if !ok {
				continue
			}
			st := &pairState{baseLen: len(series)}
			if len(series) > 0 {
				var ks *stats.IncrementalKS
				var err error
				if s.sketchEps > 0 {
					ks, err = stats.NewIncrementalKSSketch(series, s.window, s.sketchEps)
				} else {
					ks, err = stats.NewIncrementalKS(series, s.window)
				}
				if err != nil {
					return nil, fmt.Errorf("stream: baseline %s/%s: %w", m, svc, err)
				}
				st.ks = ks
			}
			st.svc, st.mi, st.shard = svc, mi, pairShard(m, svc, d.shards)
			if st.ks != nil {
				d.byMetric[mi] = append(d.byMetric[mi], st)
			}
			bySvc[svc] = st
		}
		d.states[m] = bySvc
		d.metricIndex[m] = mi
	}
	return d, nil
}

// pairShard assigns a (metric, service) pair to a shard by FNV-1a over the
// NUL-separated pair key. Purely a load-spreading function: any assignment
// yields the same detection output.
func pairShard(metric, svc string, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(metric); i++ {
		h ^= uint64(metric[i])
		h *= prime64
	}
	h *= prime64 // NUL separator: ^= 0 is the identity
	for i := 0; i < len(svc); i++ {
		h ^= uint64(svc[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// Window returns the configured sliding-window length.
func (d *Detector) Window() int { return d.window }

// Observe feeds one production window-value for a (metric, service) pair.
// The metric must be declared in the baseline universe. A pair the baseline
// does not cover is a silent no-op: the batch path would skip it.
func (d *Detector) Observe(metric, svc string, v float64) error {
	bySvc, ok := d.states[metric]
	if !ok {
		return fmt.Errorf("stream: observe: metric %q not in baseline", metric)
	}
	st, ok := bySvc[svc]
	if !ok || st.ks == nil {
		return nil
	}
	st.ks.Push(v)
	st.seen = true
	d.touch(st)
	return nil
}

// touch marks a pair for recomputation at the next flush.
func (d *Detector) touch(st *pairState) {
	if st.dirty {
		return
	}
	st.dirty = true
	d.dirty[st.shard] = append(d.dirty[st.shard], st)
}

// flush brings the cached detection state current: every pair whose window
// changed since the last flush is recomputed, with the dirty shards fanned
// across the worker pool (each pair lives in exactly one shard, so the
// staged writes are disjoint) and the deltas merged serially into the
// per-metric aggregates. A no-op when nothing changed.
func (d *Detector) flush(ctx context.Context) error {
	var touched []int
	for si, pairs := range d.dirty {
		if len(pairs) > 0 {
			touched = append(touched, si)
		}
	}
	if len(touched) == 0 {
		return nil
	}
	workers := d.workers
	if workers < 1 {
		workers = 1
	}
	if _, err := parallel.Map(ctx, workers, len(touched), func(_ context.Context, i int) (struct{}, error) {
		for _, st := range d.dirty[touched[i]] {
			st.nextTestable = st.seen && st.baseLen >= d.minSamp && st.ks.Len() >= d.minSamp
			st.nextPval = 0
			if st.nextTestable {
				p, err := st.ks.GuardedPValue(0)
				if err != nil {
					return struct{}{}, fmt.Errorf("stream: anomaly test %s on %s: %w", d.baseline.Metrics[st.mi], st.svc, err)
				}
				st.nextPval = p
			}
		}
		return struct{}{}, nil
	}); err != nil {
		return err
	}

	for _, si := range touched {
		for _, st := range d.dirty[si] {
			agg := &d.aggs[st.mi]
			if st.testable {
				agg.tested--
				if d.fdr == 0 && st.anom {
					agg.removeAnom(st.svc)
				}
			}
			st.testable, st.pval = st.nextTestable, st.nextPval
			st.anom = false
			if st.testable {
				agg.tested++
				if d.fdr == 0 {
					st.anom = st.pval < d.alpha
					if st.anom {
						agg.insertAnom(st.svc)
					}
				}
			}
			if d.fdr > 0 {
				d.fdrTouched[st.mi] = true
			}
			st.dirty = false
		}
		d.dirty[si] = d.dirty[si][:0]
	}

	// Benjamini-Hochberg couples the whole family: any change within a
	// metric re-decides that metric's family over the cached p-values (a
	// float scan, not a re-test).
	if d.fdr > 0 {
		for mi := range d.fdrTouched {
			if !d.fdrTouched[mi] {
				continue
			}
			d.fdrTouched[mi] = false
			if err := d.redecide(mi); err != nil {
				return err
			}
		}
	}
	return nil
}

// redecide reruns the family decision for one metric from the cached
// p-values, rebuilding its anomalous set.
func (d *Detector) redecide(mi int) error {
	pvals := d.pvalBuf[:0]
	for _, st := range d.byMetric[mi] {
		if st.testable {
			pvals = append(pvals, st.pval)
		}
	}
	d.pvalBuf = pvals
	shifted, err := core.DecideFamily(pvals, d.alpha, d.fdr)
	if err != nil {
		return fmt.Errorf("stream: anomalies: %w", err)
	}
	agg := &d.aggs[mi]
	agg.anom = agg.anom[:0]
	j := 0
	for _, st := range d.byMetric[mi] {
		if !st.testable {
			st.anom = false
			continue
		}
		st.anom = shifted[j]
		j++
		if st.anom {
			agg.anom = append(agg.anom, st.svc)
		}
	}
	sort.Strings(agg.anom)
	return nil
}

// ObserveHop feeds one hop's window-values for every (metric, service) pair
// at once: hop maps metric -> service -> value. Pairs are ingested in sorted
// order so error reporting is deterministic; ingestion order across distinct
// pairs does not affect any state.
func (d *Detector) ObserveHop(hop map[string]map[string]float64) error {
	ms := make([]string, 0, len(hop))
	for m := range hop {
		ms = append(ms, m)
	}
	sort.Strings(ms)
	for _, m := range ms {
		svcs := make([]string, 0, len(hop[m]))
		for svc := range hop[m] {
			svcs = append(svcs, svc)
		}
		sort.Strings(svcs)
		for _, svc := range svcs {
			if err := d.Observe(m, svc, hop[m][svc]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Materialize builds the batch production snapshot a one-shot collector
// would have produced from the current window contents: per seen pair, the
// retained arrival-order values (non-finite entries included). It exists for
// the conformance suite — stream.Detect(d, m) must equal
// core.Detect(cfg, baseline, d.Materialize(), m) — and for debugging.
func (d *Detector) Materialize() *metrics.Snapshot {
	out := metrics.NewSnapshot(d.baseline.Metrics, d.baseline.Services)
	for _, m := range d.baseline.Metrics {
		for _, svc := range d.baseline.Services {
			st := d.states[m][svc]
			if st == nil || !st.seen {
				continue
			}
			out.Data[m][svc] = st.ks.Window()
		}
	}
	return out
}

// Detect computes the current anomalous set A(metric) over the sliding
// windows, byte-identical to tolerant core.Detect on the materialized
// windows. The answer is assembled from the incrementally maintained
// aggregates after a flush of the pairs the last hops touched.
func (d *Detector) Detect(ctx context.Context, metric string) (*core.Detection, error) {
	if err := d.flush(ctx); err != nil {
		return nil, err
	}
	return d.detection(metric), nil
}

// DetectAll runs Detect for every baseline metric after a single flush. The
// result is aligned with baseline.Metrics by index.
func (d *Detector) DetectAll(ctx context.Context) ([]*core.Detection, error) {
	return d.detectEach(ctx, d.baseline.Metrics)
}

// detectEach flushes once and copies out the cached detection of each named
// metric, in order. The Localizer passes its model's metric order, which a
// model is free to set apart from its baseline's.
func (d *Detector) detectEach(ctx context.Context, names []string) ([]*core.Detection, error) {
	if err := d.flush(ctx); err != nil {
		return nil, err
	}
	out := make([]*core.Detection, len(names))
	for i, m := range names {
		out[i] = d.detection(m)
	}
	return out, nil
}

// detection copies one metric's flushed aggregate. A metric the baseline
// does not declare has an empty family, as in the batch path, where
// production.SeriesOK misses every pair.
func (d *Detector) detection(metric string) *core.Detection {
	mi, ok := d.metricIndex[metric]
	if !ok {
		return &core.Detection{Anomalous: []string{}, Tested: 0}
	}
	agg := &d.aggs[mi]
	return &core.Detection{
		Anomalous: append(make([]string, 0, len(agg.anom)), agg.anom...),
		Tested:    agg.tested,
	}
}
