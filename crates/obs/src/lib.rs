//! **sj-obs**: the workspace's observability layer.
//!
//! After PRs 4–6 a query crosses admission → scheduler → session → plan
//! executor → shard engine → kernel launches → pool transfers; this
//! crate is the one place all of those layers report to, so a single
//! artifact can show where a query's time went. Three pieces:
//!
//! * [`trace`] — span tracing on **both clocks** (host wall time and the
//!   simulator's modeled/virtual time), recorded into per-thread ring
//!   buffers, exported as Chrome trace-event JSON
//!   ([`trace::chrome_trace`], loadable in `chrome://tracing`) or a text
//!   flame summary ([`trace::flame_summary`]). Off by default; the
//!   disabled path is a single relaxed [`std::sync::atomic::AtomicBool`]
//!   load per call site (the `kernel_hotpath` bench asserts ≤ 2%
//!   overhead on the join hot path).
//! * [`metrics`] — a sharded registry of counters, gauges, and
//!   fixed-bucket histograms with JSON and Prometheus-text exposition.
//!   Streaming replacements for sort-the-sample statistics; snapshots
//!   merge associatively. The registry is process-wide, so it holds only
//!   counts no scoped report owns: the cost audit, injected faults,
//!   devices downed and reinstated, fault retries, worker panics and the
//!   shard stream balance. A count some struct already reports
//!   (`ServiceMetrics`, `SessionStats`, `ShardedReport`, `MemoryLedger`,
//!   `DevicePool::health_snapshot`) is read there and not copied here.
//! * [`audit`] — cost-model calibration audits: every projected cost
//!   (admission's `projected_cost`, the shard chooser's
//!   `modeled_makespan`) paired with its measured outcome and exported
//!   as a calibration-error histogram, so count-prediction error is
//!   visible instead of silent.
//!
//! [`json`] is the shared JSON writer/parser underneath both exporters —
//! and underneath `sj_serve`'s metrics snapshot and `sj_bench`'s result
//! tables, which previously each hand-rolled their own.

pub mod audit;
pub mod json;
pub mod metrics;
pub mod trace;

pub use json::Json;
pub use metrics::{
    exponential_buckets, registry, rel_error_buckets, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricSnapshot, MetricValue, Registry,
};
pub use trace::{
    chrome_trace, drain, flame_summary, set_enabled, set_modeled_cursor, validate, LabelValue,
    Span, SpanGuard, SpanRecord, TraceStats,
};
