//! # hni-telemetry — the observability backbone
//!
//! The evaluation of the host-interface architecture is fundamentally an
//! *attribution* exercise: which stage of the pipeline — DMA,
//! segmentation, FIFO, link, reassembly, delivery — eats the cycles at
//! 622 Mb/s. This crate makes that attribution first-class instead of
//! ad-hoc per-run accounting:
//!
//! * [`TraceEvent`] — a fixed-size, `Copy` record of one cell- or
//!   packet-lifecycle event: simulated [`Time`], pipeline [`Stage`],
//!   span [`Phase`], VC, packet/cell sequence ids, and one
//!   stage-specific argument.
//! * [`Observer`] — the one sink the timing simulations report into:
//!   an optional event buffer (full-run trace capture) and an optional
//!   [`CycleProfiler`]. The default observer records nothing; its
//!   `is_tracing()` / `is_profiling()` gates let every instrumentation
//!   point vanish from the steady-state path: no event built, no
//!   allocation, bit-identical simulation results.
//! * [`MetricsRegistry`] — named `Counter` / `Histogram` / `RateMeter` /
//!   `OccupancyTracker` instances (reusing `hni-sim::stats`) under
//!   hierarchical names (`nic.tx.seg.cells`) with a deterministic text
//!   dump, derivable *from the trace stream itself*.
//! * [`jsonl`] — a line-per-event JSON export, the interchange format
//!   `report --trace <id>` emits.
//! * [`waterfall`] — the reducer that rebuilds the R-F3 per-stage
//!   latency breakdown directly from trace spans.
//! * [`CycleProfiler`] — cycle accounting: every simulated interval
//!   charged to a `(Component, Activity)` pair, with windowed
//!   utilization [`TimeSeries`] and occupancy gauges; free when the
//!   observer carries none, exactly like the trace buffer.
//! * [`attribution`] — ranks a [`Profile`]'s resources by utilization
//!   and computes the throughput ceiling each implies, naming the
//!   bottleneck (`report bottleneck <id>`).
//! * [`expfmt`] — a Prometheus-style text exposition of a profile
//!   snapshot; [`Profile::folded_stacks`] emits flamegraph-collapse
//!   lines for `report profile <id>`; histogram families and a
//!   conformance [`validate`](expfmt::validate)r for CI linting.
//!
//! The always-on telemetry plane (PR 6) adds the pieces that stay on
//! at line rate with bounded overhead:
//!
//! * [`HdrHist`] — fixed 64-bucket log₂ latency histograms with
//!   p50/p90/p99/p999 bands and exact max, mergeable across workers.
//! * [`topk`] — per-VC accounting at bounded cardinality: exact
//!   sharded volume counters plus a space-saving top-K heavy-hitter
//!   tracker, O(K) memory at million-VC scale.
//! * [`TraceSampler`] — deterministic 1-in-N trace sampling whose
//!   keep/drop decision is a pure function of cell identity, so
//!   sampled traces are byte-identical across reruns and worker
//!   counts.
//! * [`sentinel`] — the perf-regression sentinel behind
//!   `report perf --check`: `BENCH_HISTORY.jsonl` records and the
//!   tolerance comparison.
//! * [`json`] — the workspace's single JSON string escaper, shared by
//!   every hand-rolled JSON writer.
//!
//! The tail-anatomy layer turns "p99 regressed" into "this stage
//! regressed":
//!
//! * [`spans`] — [`PacketSpans`], the one-pass per-packet span index
//!   behind the waterfall, splitting every stage into queue-wait vs
//!   service time; partial lives (dropped packets) stay attributable.
//! * [`reservoir`] — [`TailReservoir`], the always-on zero-alloc tail
//!   exemplar reservoir next to `latency_hist` in every report:
//!   slowest-N packet identities plus a deterministic identity sample
//!   the p99+ cohort is carved from, byte-identical across reruns and
//!   `HNI_JOBS`.
//! * [`tailattr`] — [`attribute_tail`], the cohort critical-path
//!   attributor: tail vs median cohorts over the span index, stages
//!   ranked by excess, rendered as a blame table and Prometheus
//!   gauges (`report tail <id>`).

pub mod attribution;
pub mod event;
pub mod expfmt;
pub mod hist;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod observer;
pub mod profiler;
pub mod reservoir;
pub mod sampler;
pub mod sentinel;
pub mod spans;
pub mod tailattr;
pub mod timeseries;
pub mod topk;
pub mod waterfall;

pub use attribution::{attribute, Attribution, ResourceShare};
pub use event::{Phase, Stage, TraceEvent, NO_ID};
pub use hist::{HdrHist, Pcts};
pub use metrics::{Metric, MetricsRegistry};
pub use observer::Observer;
pub use profiler::{Activity, Component, CycleProfiler, GaugeStats, Profile};
pub use reservoir::{Exemplar, TailReservoir};
pub use sampler::TraceSampler;
pub use sentinel::{LoopSample, Regression, SentinelRecord};
pub use spans::{PacketLife, PacketSpans, SpanStage, STAGE_LABELS};
pub use tailattr::{attribute_tail, StageShare, TailAttribution};
pub use timeseries::TimeSeries;
pub use topk::{TopEntry, TopK, VcMetrics, VcShards};
pub use waterfall::{StageLatency, Waterfall};

pub use hni_sim::{Duration, Time};
