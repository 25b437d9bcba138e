// Package metrics collects and summarizes the quantities the paper
// evaluates: per-application response times (averages and P50/P95/P99
// tail latencies, Figs. 5-6), LUT/FF utilization time-integrals
// (Fig. 7 and the headline +35%/+29% claim), PR-contention counters
// feeding the D_switch metric, and migration accounting (Fig. 8).
//
// Summarize reuses a scratch buffer per Collector, so warm summaries
// allocate nothing.
//
// # Metrics modes
//
// A Collector runs in one of two modes:
//
//   - exact (the default): every ResponseSample is retained in
//     Responses and percentiles are computed over the sorted samples.
//     Memory grows linearly with the horizon, output is byte-identical
//     to every release since the seed — golden files pin it.
//
//   - stream (EnableStreaming): no sample is retained. Observations
//     fold into an HDR-style log-linear Sketch plus a fixed ring of
//     per-window sketches, so memory is O(1) in the number of
//     applications and a million-app horizon costs the same few
//     hundred KiB as a ten-thousand-app one.
//
// # Multi-board merging
//
// One path merges boards in both modes: Absorb folds a board's
// collector into an aggregate Collector. An exact source appends its
// samples; a stream source merges its run-level sketch, window ring
// and per-spec aggregates. Both add the resource-time integrals, every
// counter and the fault axis. Callers absorb boards in a fixed order,
// then call Summarize, BySpec and Windows once. An aggregate reports
// the multi-board rules:
//
//   - utilization = Σ(board utilization × board completed apps) /
//     Σ board apps;
//   - availability = 1 − Σ downtime / Σ(board fault slots × board
//     span), floored at 0;
//   - RetriedApps = the sum of per-board distinct counts;
//   - EndTime (the makespan) = the latest board finish.
//
// Per-window utilization in Windows follows a different rule: windows
// do not track each board's completed apps, so a merged window divides
// the summed resource-time integrals by the summed capacities
// (capacity-weighted). A stream farm's time_series utilization is
// therefore not the app-weighted summary utilization.
//
// Reset empties an aggregate but keeps its buffers, so a farm merges
// pair after pair through one collector.
//
// # Streaming invariants
//
// Exactness: Count, Sum (hence MeanRT), Min, Max, MeanQueue, the
// utilization integrals, and every counter (PR, preemption, migration,
// fault) are tracked exactly in stream mode — they match the exact
// pipeline bit for bit, on merged multi-board runs too.
//
// Accuracy: only percentiles are approximate. A value lands in a
// bucket whose width is at most 2^-bits of its magnitude, so any
// quantile estimate is within a relative value error of 2^-7 ≈ 0.78%
// for the run-level sketch (GlobalSketchBits) and 2^-5 ≈ 3.1% for the
// per-window sketches (WindowSketchBits); rank error at P50/P95/P99
// is under 1% on realistic distributions (pinned by TestSketchRankError
// across uniform, exponential, bimodal, and MMPP-bursty inputs).
// Quantile interpolates between the two samples bracketing the target
// rank, as Percentile does, so the bound holds at sparse tails too
// (pinned by TestSketchQuantileSparseTail).
//
// Determinism: bucket counts are integers and merging adds them, so
// Merge is exactly associative and commutative — per-board and
// per-shard sketches fold into a fleet sketch in any grouping with
// byte-identical results. Stream-mode runs are byte-identical
// sequential vs RunMany vs the sharded farm executor.
//
// Rollover: the window ring keeps the newest MaxWindows windows.
// When the horizon advances past the ring, the oldest slot is reset
// in place (its sketch storage is recycled, so warm ingest allocates
// nothing) and samples older than the retained span fold into the
// run-level sketch only. Windows() returns at most MaxWindows entries
// regardless of horizon length.
package metrics
