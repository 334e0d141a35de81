//! The admission controller: admit, delay, or reject.
//!
//! The controller never touches a device. Its inputs are cheap reads —
//! the session's [`ProjectedCost`] (the query's predicted work counts
//! priced like executed work, see [`grid_join::cost`]), the scheduler's
//! projected queue wait and queue depth, and the number of healthy
//! devices — and its output is a [`Decision`] made against the
//! configured latency SLO:
//!
//! * projected completion within the SLO → **admit**;
//! * within `slo × delay_factor` → **admit, flagged delayed** (the query
//!   runs but the operator sees the SLO margin eroding);
//! * beyond that, or past the queue-depth bound, or past the tenant's
//!   in-flight cap → **reject** with a `retry_after` hint sized to when
//!   the backlog is projected to have drained enough.

use grid_join::ProjectedCost;
use std::time::Duration;

/// Admission-controller knobs (see the [module docs](self)).
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Master switch: `false` admits everything (the collapse baseline
    /// the `serve_slo` bench measures against).
    pub enabled: bool,
    /// Target latency SLO: admission aims to keep every admitted query's
    /// projected completion (queue wait + modeled cost) within it.
    pub slo: Duration,
    /// Projected completions in `(slo, slo × delay_factor]` are admitted
    /// but flagged delayed. Must be ≥ 1.
    pub delay_factor: f64,
    /// Per-tenant cap on in-flight queries (queued + running); the
    /// fair-share bound a flooding tenant hits first.
    pub tenant_max_inflight: usize,
    /// Hard bound on the scheduler's queue depth (admitted queries no
    /// worker has picked up yet), a backstop against unbounded queues
    /// when cost projections run low.
    pub max_queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            slo: Duration::from_millis(250),
            delay_factor: 1.5,
            tenant_max_inflight: 64,
            max_queue_depth: 4096,
        }
    }
}

/// The controller's verdict on one submitted query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Decision {
    /// Run it. `delayed` marks admissions whose projected completion
    /// exceeds the SLO but stayed within the delay window.
    Admit {
        /// Projected to finish past the SLO (but within the window).
        delayed: bool,
    },
    /// Shed it; the client should retry no sooner than `retry_after`.
    Reject {
        /// Projected time until enough backlog has drained.
        retry_after: Duration,
    },
}

/// Decides one query's fate. `projected_wait` is the scheduler's estimate
/// of time-to-dispatch at the query's arrival; `tenant_inflight` the
/// submitting tenant's queued + running count; `queued` the scheduler's
/// queue depth and `healthy` the number of devices not in probation, both
/// at submission.
pub fn decide(
    cfg: &AdmissionConfig,
    projected_wait: Duration,
    cost: &ProjectedCost,
    tenant_inflight: usize,
    queued: usize,
    healthy: usize,
) -> Decision {
    if !cfg.enabled {
        return Decision::Admit { delayed: false };
    }
    let retry_hint = || {
        let over = (projected_wait + cost.modeled).saturating_sub(cfg.slo);
        // Capacity-aware drain estimate: the queued backlog spread over
        // the *healthy* devices, each job costing about this query's
        // modeled time. A hint sized to one query's cost invites an
        // immediate re-reject when the pool is deep in backlog or
        // running degraded; scaling by the projected drain rate tells
        // the client when capacity is actually expected to exist.
        let drain = cost
            .modeled
            .mul_f64((queued as f64 + 1.0) / healthy.max(1) as f64);
        over.max(drain).max(cost.modeled)
    };
    if tenant_inflight >= cfg.tenant_max_inflight {
        return Decision::Reject {
            retry_after: retry_hint(),
        };
    }
    if queued >= cfg.max_queue_depth {
        return Decision::Reject {
            retry_after: retry_hint(),
        };
    }
    let projected = projected_wait + cost.modeled;
    if projected <= cfg.slo {
        Decision::Admit { delayed: false }
    } else if projected.as_secs_f64() <= cfg.slo.as_secs_f64() * cfg.delay_factor {
        Decision::Admit { delayed: true }
    } else {
        Decision::Reject {
            retry_after: retry_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(ms: u64) -> ProjectedCost {
        ProjectedCost {
            modeled: Duration::from_millis(ms),
            expected_pairs: 1000,
            needs_build: false,
        }
    }

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            slo: Duration::from_millis(100),
            ..AdmissionConfig::default()
        }
    }

    #[test]
    fn within_slo_admits() {
        let d = decide(&cfg(), Duration::from_millis(50), &cost(40), 0, 0, 2);
        assert_eq!(d, Decision::Admit { delayed: false });
    }

    #[test]
    fn delay_window_flags_delayed() {
        let d = decide(&cfg(), Duration::from_millis(90), &cost(40), 0, 0, 2);
        assert_eq!(d, Decision::Admit { delayed: true });
    }

    #[test]
    fn beyond_window_rejects_with_retry_hint() {
        let d = decide(&cfg(), Duration::from_millis(400), &cost(40), 0, 0, 2);
        match d {
            Decision::Reject { retry_after } => {
                assert_eq!(retry_after, Duration::from_millis(340));
            }
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn tenant_cap_rejects_even_when_idle() {
        let mut c = cfg();
        c.tenant_max_inflight = 2;
        let d = decide(&c, Duration::ZERO, &cost(1), 2, 0, 2);
        assert!(matches!(d, Decision::Reject { .. }));
    }

    #[test]
    fn queue_depth_bound_rejects() {
        let mut c = cfg();
        c.max_queue_depth = 3;
        let d = decide(&c, Duration::ZERO, &cost(1), 0, 3, 2);
        assert!(matches!(d, Decision::Reject { .. }));
    }

    #[test]
    fn retry_hint_scales_with_backlog_and_degraded_capacity() {
        let mut c = cfg();
        c.max_queue_depth = 4;
        // 16 queued jobs draining through 1 healthy device of 2: the
        // hint must cover the projected drain, not one query's cost.
        let d = decide(&c, Duration::ZERO, &cost(10), 0, 16, 1);
        match d {
            Decision::Reject { retry_after } => {
                assert_eq!(retry_after, Duration::from_millis(170));
            }
            other => panic!("expected reject, got {other:?}"),
        }
        // Same backlog with both devices healthy drains twice as fast.
        let d = decide(&c, Duration::ZERO, &cost(10), 0, 16, 2);
        match d {
            Decision::Reject { retry_after } => {
                assert_eq!(retry_after, Duration::from_millis(85));
            }
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn disabled_controller_admits_everything() {
        let c = AdmissionConfig {
            enabled: false,
            ..cfg()
        };
        let d = decide(&c, Duration::from_secs(60), &cost(500), 999, 10_000, 2);
        assert_eq!(d, Decision::Admit { delayed: false });
    }
}
