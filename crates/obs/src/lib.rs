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
//! * [`metrics`] — named counters in one process-wide registry. A count
//!   some struct owns is read there and not copied here: serve traffic
//!   from `ServiceMetrics`, snapshot churn and fault retries from
//!   `SessionStats`, re-executions and device streams from
//!   `ShardedReport`, resident bytes and evictions from `MemoryLedger`,
//!   and faults fired, devices downed and reinstated from
//!   `DevicePool::fault_counts`. What the registry holds are the
//!   service's fault retries and worker panics.
//! * [`audit`] — cost-model calibration audits: a fold over the
//!   (projected, measured) pairs that outputs carry — admission's
//!   projected cost next to the query's modeled time, the shard
//!   chooser's projected stream and partition build next to the run's —
//!   so count-prediction error is visible instead of silent.
//!
//! [`json`] is the shared JSON writer/parser underneath the trace
//! exporter — and underneath `sj_serve`'s metrics snapshot and
//! `sj_bench`'s result tables, which previously each hand-rolled their
//! own.

pub mod audit;
pub mod json;
pub mod metrics;
pub mod trace;

pub use json::Json;
pub use metrics::{registry, Counter, Registry};
pub use trace::{
    chrome_trace, drain, flame_summary, set_enabled, set_modeled_cursor, validate, LabelValue,
    Span, SpanGuard, SpanRecord, TraceStats,
};
