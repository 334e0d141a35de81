//! `sj-serve` — the multi-tenant query service over resident self-join
//! sessions.
//!
//! The paper's pipeline answers one query; PR 4's [`SelfJoinSession`]
//! answers a *stream* of them against a pinned dataset. This crate is the
//! front door that turns those sessions into a service: many tenants
//! submitting concurrent queries against many datasets, executed by a
//! worker thread per pool device, with three control loops between the
//! submit call and the kernels:
//!
//! 1. **Admission** ([`admission`]) — a query's projected cost (its
//!    predicted work counts priced like executed work,
//!    [`grid_join::ProjectedCost`], [`grid_join::cost`]) plus its wait for
//!    the soonest-free healthy device must meet the configured latency
//!    SLO, or the query is *delayed* (admitted past the SLO up to a
//!    configurable factor) or *rejected* with [`ServeError::Overloaded`]
//!    and a `retry_after` hint. Tenant in-flight caps and a queue-depth
//!    bound reject too.
//! 2. **Scheduling** ([`scheduler`]) — admission fixes each query's
//!    device and virtual start (the healthy device that frees soonest); a
//!    burst is admitted in weighted-fair-queueing tag order, so a light
//!    tenant overtakes a flooding one; workers pop in virtual-start order.
//! 3. **Eviction** — sessions register every device snapshot with the
//!    pool's [`sim_gpu::MemoryLedger`]; once the pool's budget is set
//!    ([`sim_gpu::MemoryLedger::set_budget`]), registering a new snapshot
//!    first evicts least-recently-used ones (any session's), and an
//!    evicted session transparently re-uploads on its next touch. Queries
//!    stay pair-for-pair exact throughout — eviction changes *where* the
//!    index lives, never what it answers.
//!
//! Latency is accounted on the simulator's virtual clock: a query's
//! latency is queue wait plus modeled response time, with per-device busy
//! horizons advancing as workers complete jobs. [`ServiceMetrics`] is the
//! one report of a service's traffic: per-tenant QPS, admit/delay/reject
//! and failure counts, latency percentiles and snapshot churn, as JSON.
//! Each [`ServeOutput`] carries admission's projection next to its
//! measured modeled time, so a caller audits admission by folding the
//! outputs it holds (`sj_obs::audit::AuditReport::of`). The process-wide
//! `sj_obs` registry holds only the fault-retry and worker-panic
//! counters, which have no scoped home.

pub mod admission;
pub mod metrics;
pub mod scheduler;
pub mod service;

pub use admission::{AdmissionConfig, Decision};
pub use metrics::{LatencyStats, ServiceMetrics, TenantMetrics};
pub use service::{
    DatasetId, QueryRequest, QueryTicket, SelfJoinService, ServeError, ServeOutput, ServiceConfig,
};

// Re-export the handful of upstream types that appear in this crate's
// public signatures.
pub use grid_join::{ProjectedCost, SelfJoinSession, SessionConfig};
pub use sim_gpu::DevicePool;
