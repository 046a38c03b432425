// Package stream is the online localization engine: it consumes telemetry
// window-values as they are produced and re-localizes on every hop without
// recomputing the batch pipeline from zero.
//
// The batch pipeline (core.Detect, core.Localizer) assumes a one-shot
// production snapshot: every call re-sorts every series and re-runs every
// two-sample test. Re-running it per hop over a sliding window costs
// O(n log n) per series per tick. This package keeps, per (metric, service)
// pair, an incremental KS state (stats.IncrementalKS) whose baseline is
// sorted exactly once and whose production window is maintained by ordered
// insert/evict — so a hop costs one bounded insert per pair plus the D-walk,
// never a sort.
//
// Scale contract: per-pair detection state is hash-sharded, and each hop's
// flush recomputes only the pairs whose windows actually changed — so a hop
// that touches T of the S×M pairs costs O(T) test evaluations, not O(S·M),
// and per-hop latency stays flat as the service count grows with constant
// hop density. With WithSketch, per-pair baseline memory is O(1/eps)
// regardless of baseline length. Both are pure representation changes:
// verdicts are byte-identical at every shard count, and bit-identical to the
// exact baseline whenever the sketch is lossless for it.
//
// Equivalence contract: the Detector's per-hop output is byte-identical to
// tolerant core.Detect run on the materialized sliding window (guarded KS
// test, alpha-vs-FDR family decision, min-sample guard) — the one detection
// configuration the batch localizer runs — and
// the Localizer's per-hop votes are produced by the same vote phase
// (core.Localizer.Aggregate) the batch localizer runs. The conformance suite
// in this package (equivalence tests, golden corpus, FuzzIncrementalKS in
// internal/stats) enforces the contract at every hop for workers 1..8 in
// both alpha and FDR modes.
//
// Configuration is one functional-option set (Option): NewDetector,
// NewLocalizer and NewPipeline all take the same options, each reading the
// subset it understands.
//
// Layering, bottom to top:
//
//   - Detector: sliding-window anomaly sets A(M) per metric.
//   - Localizer: Detector + core vote phase + K-of-N hysteresis, emitting a
//     timestamped Verdict per hop.
//   - Aggregator: telemetry.Sample ticks -> completed hopping windows,
//     incrementally equivalent to telemetry.HoppingWindows.
//   - Pipeline: Aggregator + Localizer, the `causalfl watch` engine.
package stream
