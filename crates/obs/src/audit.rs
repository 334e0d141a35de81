//! Cost-model calibration audit: every projection paired with its
//! measured outcome.
//!
//! The repo runs on *models* — admission control trusts
//! `SelfJoinSession::projected_cost`, the shard-count chooser trusts
//! `modeled_makespan`, both pricing predicted work counts — and either
//! can drift silently from what execution then costs. This module
//! makes the drift a metric: each
//! instrumented site calls [`record`] with its projection and the
//! measured outcome, and the signed relative error lands in a
//! [`rel_error_buckets`]-shaped histogram per model, alongside magnitude
//! and sample counters. [`report`] summarizes one model;
//! [`reports`] lists every model seen since the last registry reset.

use crate::metrics::{registry, rel_error_buckets, MetricValue};

/// Sample-count metric name (`{model=...}`).
pub const SAMPLES: &str = "sj_cost_audit_samples_total";
/// Signed relative-error histogram name: `(projected − measured) /
/// measured`, positive = over-projection.
pub const REL_ERROR: &str = "sj_cost_audit_rel_error";
/// Absolute relative-error histogram name (magnitude of miscalibration),
/// over the non-negative half of [`rel_error_buckets`].
pub const ABS_REL_ERROR: &str = "sj_cost_audit_abs_rel_error";
/// Counter of samples dropped for a non-positive or non-finite
/// measurement.
pub const INVALID: &str = "sj_cost_audit_invalid_total";
/// Gauge accumulating **unclamped** `ln(projected / measured)` per model.
/// The ±8 histogram clamp saturates on grossly miscalibrated models (an
/// early shard-chooser eval-cost model sat 20–80× over); the log-ratio
/// sum keeps the true magnitude, and its mean is the geometric-mean
/// drift.
pub const LOG_RATIO_SUM: &str = "sj_cost_audit_log_ratio_sum";
/// Counter of samples folded into [`LOG_RATIO_SUM`] (both sides must be
/// positive for the log to exist).
pub const LOG_SAMPLES: &str = "sj_cost_audit_log_samples_total";

/// Relative errors are clamped to ±this before observation (matches the
/// [`rel_error_buckets`] range); a model whose mean sits at the clamp is
/// miscalibrated by *at least* 8× — see [`AuditReport::summary`].
pub const CLAMP: f64 = 8.0;

/// Records one projection/outcome pair for `model` (e.g. `"admission"`,
/// `"shard_chooser"`), both in seconds. Non-finite or non-positive
/// measurements are counted as invalid and otherwise dropped; relative
/// errors are clamped to the histogram range (±8×).
pub fn record(model: &'static str, projected_secs: f64, measured_secs: f64) {
    let labels = [("model", model)];
    if !(measured_secs.is_finite() && measured_secs > 0.0 && projected_secs.is_finite()) {
        registry().counter(INVALID, &labels).inc();
        return;
    }
    let rel = ((projected_secs - measured_secs) / measured_secs).clamp(-CLAMP, CLAMP);
    registry().counter(SAMPLES, &labels).inc();
    registry()
        .histogram(REL_ERROR, &labels, &rel_error_buckets())
        .observe(rel);
    registry()
        .histogram(ABS_REL_ERROR, &labels, &abs_error_buckets())
        .observe(rel.abs());
    if projected_secs > 0.0 {
        registry()
            .gauge(LOG_RATIO_SUM, &labels)
            .add((projected_secs / measured_secs).ln());
        registry().counter(LOG_SAMPLES, &labels).inc();
    }
}

/// Buckets for |relative error|: 0, 1%, …, 8×. Starting at 0 keeps an
/// exact projection in a bucket whose percentiles read 0, where the signed
/// buckets would interpolate it from −1%.
fn abs_error_buckets() -> Vec<f64> {
    rel_error_buckets()
        .into_iter()
        .filter(|&b| b >= 0.0)
        .collect()
}

/// Summary of one model's calibration error.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// The model label.
    pub model: String,
    /// Audited samples.
    pub count: u64,
    /// Mean signed relative error — sustained sign is drift.
    pub mean_rel_error: f64,
    /// Mean |relative error| — overall miscalibration magnitude.
    pub mean_abs_rel_error: f64,
    /// Median |relative error| (streaming estimate from the histogram).
    pub p50_abs_rel_error: f64,
    /// 95th-percentile |relative error|.
    pub p95_abs_rel_error: f64,
    /// Mean **unclamped** `ln(projected / measured)` — the log of the
    /// geometric-mean projection drift. Unlike the histogram means this
    /// never saturates, so a 50× over-projection reads as `ln 50 ≈ 3.9`
    /// rather than pegging at the ±8 clamp. `0.0` when no sample had a
    /// positive projection.
    pub mean_log_ratio: f64,
}

impl AuditReport {
    /// Geometric mean of `projected / measured`: `exp(mean_log_ratio)`.
    /// The unclamped counterpart of `mean_rel_error + 1`.
    pub fn geo_mean_ratio(&self) -> f64 {
        self.mean_log_ratio.exp()
    }
    /// One-line human rendering for bench output. A mean sitting at the
    /// ±800% clamp is rendered with a `>=`/`<=` prefix: every sample
    /// saturated the histogram range, so the true error is at least that
    /// large.
    pub fn summary(&self) -> String {
        let mean = self.mean_rel_error * 100.0;
        let mean = if self.mean_rel_error >= CLAMP {
            format!(">=+{mean:.1}%")
        } else if self.mean_rel_error <= -CLAMP {
            format!("<={mean:.1}%")
        } else {
            format!("{mean:+.1}%")
        };
        format!(
            "cost audit [{}]: n={} mean_err={} |err| mean={:.1}% p50={:.1}% p95={:.1}% geo=x{:.3}",
            self.model,
            self.count,
            mean,
            self.mean_abs_rel_error * 100.0,
            self.p50_abs_rel_error * 100.0,
            self.p95_abs_rel_error * 100.0,
            self.geo_mean_ratio(),
        )
    }
}

/// The audit summary for one model, if it has recorded samples.
pub fn report(model: &str) -> Option<AuditReport> {
    reports().into_iter().find(|r| r.model == model)
}

/// Audit summaries for every model with samples, sorted by model name.
pub fn reports() -> Vec<AuditReport> {
    let snap = registry().snapshot();
    let model_of = |labels: &[(String, String)]| -> Option<String> {
        labels
            .iter()
            .find(|(k, _)| k == "model")
            .map(|(_, v)| v.clone())
    };
    let mut out = Vec::new();
    for m in &snap {
        if m.name != REL_ERROR {
            continue;
        }
        let Some(model) = model_of(&m.labels) else {
            continue;
        };
        let MetricValue::Histogram(signed) = &m.value else {
            continue;
        };
        let abs = snap.iter().find_map(|a| {
            if a.name == ABS_REL_ERROR && model_of(&a.labels).as_deref() == Some(&model) {
                match &a.value {
                    MetricValue::Histogram(h) => Some(h.clone()),
                    _ => None,
                }
            } else {
                None
            }
        });
        let Some(abs) = abs else { continue };
        if signed.count == 0 {
            continue;
        }
        let find_val = |name: &str| {
            snap.iter().find_map(|g| {
                if g.name == name && model_of(&g.labels).as_deref() == Some(&model) {
                    match &g.value {
                        MetricValue::Gauge(v) => Some(*v),
                        MetricValue::Counter(c) => Some(*c as f64),
                        _ => None,
                    }
                } else {
                    None
                }
            })
        };
        let log_sum = find_val(LOG_RATIO_SUM).unwrap_or(0.0);
        let log_n = find_val(LOG_SAMPLES).unwrap_or(0.0);
        let mean_log_ratio = if log_n > 0.0 { log_sum / log_n } else { 0.0 };
        out.push(AuditReport {
            model,
            count: signed.count,
            mean_rel_error: signed.mean(),
            mean_abs_rel_error: abs.mean(),
            p50_abs_rel_error: abs.quantile(0.50),
            p95_abs_rel_error: abs.quantile(0.95),
            mean_log_ratio,
        });
    }
    out.sort_by(|a, b| a.model.cmp(&b.model));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_report() {
        // The global registry is shared across tests; use a model name
        // unique to this test.
        record("audit_test_model", 1.2, 1.0);
        record("audit_test_model", 0.9, 1.0);
        record("audit_test_model", 2.0, 1.0);
        record("audit_test_model", 1.0, 0.0); // invalid, dropped
        let r = report("audit_test_model").expect("samples recorded");
        assert_eq!(r.count, 3);
        // Signed errors: +0.2, -0.1, +1.0 → mean ≈ 0.3667.
        assert!((r.mean_rel_error - 0.36666).abs() < 1e-3, "{r:?}");
        assert!(r.mean_abs_rel_error > 0.4);
        assert!(r.p95_abs_rel_error >= r.p50_abs_rel_error);
        let invalid = registry()
            .counter(INVALID, &[("model", "audit_test_model")])
            .get();
        assert_eq!(invalid, 1);
        assert!(report("audit_no_such_model").is_none());
    }

    #[test]
    fn exact_projections_read_zero_error_percentiles() {
        for _ in 0..10 {
            record("audit_test_exact", 0.25, 0.25);
        }
        let r = report("audit_test_exact").expect("samples recorded");
        assert_eq!(r.p50_abs_rel_error, 0.0);
        assert_eq!(r.p95_abs_rel_error, 0.0);
        assert!(
            r.summary().contains("|err| mean=0.0% p50=0.0% p95=0.0%"),
            "{}",
            r.summary()
        );
    }

    #[test]
    fn saturated_mean_renders_as_lower_bound() {
        // 100x over-projection pegs the ±8 clamp on every sample.
        record("audit_test_clamp", 100.0, 1.0);
        record("audit_test_clamp", 200.0, 2.0);
        let r = report("audit_test_clamp").expect("samples recorded");
        assert_eq!(r.count, 2);
        assert!((r.mean_rel_error - CLAMP).abs() < 1e-9);
        assert!(
            r.summary().contains("mean_err=>=+800.0%"),
            "{}",
            r.summary()
        );
        // An unsaturated mean keeps the plain signed rendering.
        record("audit_test_noclamp", 1.5, 1.0);
        let r = report("audit_test_noclamp").unwrap();
        assert!(r.summary().contains("mean_err=+50.0%"), "{}", r.summary());
    }

    #[test]
    fn log_ratio_survives_the_clamp() {
        // A 20x over-projection saturates the rel-error histograms, but
        // the unclamped log track keeps the true magnitude.
        for _ in 0..4 {
            record("audit_test_log", 20.0, 1.0);
        }
        let r = report("audit_test_log").expect("samples recorded");
        assert!((r.mean_rel_error - CLAMP).abs() < 1e-9); // clamped
        assert!((r.mean_log_ratio - 20.0f64.ln()).abs() < 1e-9);
        assert!((r.geo_mean_ratio() - 20.0).abs() < 1e-6);
        assert!(r.summary().contains("geo=x20.000"), "{}", r.summary());

        // Mixed over/under projections cancel geometrically: 4x over then
        // 4x under is calibrated on geometric average.
        record("audit_test_log_mixed", 4.0, 1.0);
        record("audit_test_log_mixed", 1.0, 4.0);
        let r = report("audit_test_log_mixed").unwrap();
        assert!(r.mean_log_ratio.abs() < 1e-9);
        assert!((r.geo_mean_ratio() - 1.0).abs() < 1e-9);

        // Non-positive projections contribute to the histograms (rel =
        // -1) but are excluded from the log track rather than poisoning
        // it with -inf.
        record("audit_test_log_zero", 0.0, 1.0);
        record("audit_test_log_zero", 2.0, 1.0);
        let r = report("audit_test_log_zero").unwrap();
        assert_eq!(r.count, 2);
        assert!((r.mean_log_ratio - 2.0f64.ln()).abs() < 1e-9);
    }
}
