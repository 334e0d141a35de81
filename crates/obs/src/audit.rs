//! Cost-model calibration audit: a fold over (projected, measured) pairs.
//!
//! The repo runs on *models* — admission control trusts
//! `SelfJoinSession::projected_cost`, the shard-count chooser trusts
//! `modeled_makespan`, both pricing predicted work counts — and either
//! can drift silently from what execution then costs. Every output those
//! models priced carries its own pair: `ServeOutput::projected` next to
//! its report's `modeled_total`, and `ShardedReport::projected_stream`
//! and `projected_partition` next to what the run measured. A caller
//! holding a set of outputs folds their pairs with [`AuditReport::of`];
//! nothing is recorded anywhere else.

use std::time::Duration;

/// Relative errors are clamped to ±this before they are averaged; a
/// model whose mean sits at the clamp is miscalibrated by *at least* 8×
/// — see [`AuditReport::summary`]. The log-ratio mean is not clamped.
pub const CLAMP: f64 = 8.0;

/// Summary of one model's calibration error over a set of pairs.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// The model label.
    pub model: String,
    /// Audited pairs.
    pub count: u64,
    /// Pairs left out because their measured time was zero.
    pub invalid: u64,
    /// Mean signed relative error, `(projected − measured) / measured`
    /// clamped to ±[`CLAMP`] — sustained sign is drift.
    pub mean_rel_error: f64,
    /// Mean |relative error| — overall miscalibration magnitude.
    pub mean_abs_rel_error: f64,
    /// Median |relative error| (nearest rank over the pairs).
    pub p50_abs_rel_error: f64,
    /// 95th-percentile |relative error| (nearest rank).
    pub p95_abs_rel_error: f64,
    /// Mean **unclamped** `ln(projected / measured)` — the log of the
    /// geometric-mean projection drift, over the pairs with a positive
    /// projection. Unlike the relative-error means this never saturates,
    /// so a 50× over-projection reads as `ln 50 ≈ 3.9` rather than
    /// pegging at the ±8 clamp. `0.0` when no pair had a positive
    /// projection.
    pub mean_log_ratio: f64,
}

impl AuditReport {
    /// Folds `(projected, measured)` pairs of `model` into its summary, or
    /// `None` when no pair has a positive measured time.
    pub fn of(model: &str, pairs: impl IntoIterator<Item = (Duration, Duration)>) -> Option<Self> {
        let mut rel = Vec::new();
        let mut invalid = 0;
        let (mut log_sum, mut log_n) = (0.0, 0u64);
        for (projected, measured) in pairs {
            let (p, m) = (projected.as_secs_f64(), measured.as_secs_f64());
            if m <= 0.0 {
                invalid += 1;
                continue;
            }
            rel.push(((p - m) / m).clamp(-CLAMP, CLAMP));
            if p > 0.0 {
                log_sum += (p / m).ln();
                log_n += 1;
            }
        }
        if rel.is_empty() {
            return None;
        }
        let n = rel.len() as f64;
        let mut abs: Vec<f64> = rel.iter().map(|r| r.abs()).collect();
        abs.sort_by(f64::total_cmp);
        let nearest_rank = |q: f64| abs[((q * n).ceil() as usize).clamp(1, abs.len()) - 1];
        Some(Self {
            model: model.to_string(),
            count: rel.len() as u64,
            invalid,
            mean_rel_error: rel.iter().sum::<f64>() / n,
            mean_abs_rel_error: abs.iter().sum::<f64>() / n,
            p50_abs_rel_error: nearest_rank(0.50),
            p95_abs_rel_error: nearest_rank(0.95),
            mean_log_ratio: if log_n > 0 {
                log_sum / log_n as f64
            } else {
                0.0
            },
        })
    }

    /// Geometric mean of `projected / measured`: `exp(mean_log_ratio)`.
    /// The unclamped counterpart of `mean_rel_error + 1`.
    pub fn geo_mean_ratio(&self) -> f64 {
        self.mean_log_ratio.exp()
    }

    /// One-line human rendering for bench output. A mean sitting at the
    /// ±800% clamp is rendered with a `>=`/`<=` prefix: every pair
    /// saturated the clamp, so the true error is at least that large.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Pairs from `(projected, measured)` seconds.
    fn pairs(secs: &[(f64, f64)]) -> Vec<(Duration, Duration)> {
        secs.iter()
            .map(|&(p, m)| (Duration::from_secs_f64(p), Duration::from_secs_f64(m)))
            .collect()
    }

    #[test]
    fn record_and_report() {
        let r = AuditReport::of(
            "m",
            pairs(&[(1.2, 1.0), (0.9, 1.0), (2.0, 1.0), (1.0, 0.0)]),
        )
        .expect("three valid pairs");
        assert_eq!(r.count, 3);
        assert_eq!(r.invalid, 1);
        // Signed errors: +0.2, -0.1, +1.0 → mean ≈ 0.3667.
        assert!((r.mean_rel_error - 0.36666).abs() < 1e-3, "{r:?}");
        assert!((r.mean_abs_rel_error - 1.3 / 3.0).abs() < 1e-9, "{r:?}");
        // Nearest rank over |err| = [0.1, 0.2, 1.0]: rank 2 and rank 3.
        assert!((r.p50_abs_rel_error - 0.2).abs() < 1e-9, "{r:?}");
        assert!((r.p95_abs_rel_error - 1.0).abs() < 1e-9, "{r:?}");
        assert!(AuditReport::of("m", pairs(&[(1.0, 0.0)])).is_none());
        assert!(AuditReport::of("m", Vec::new()).is_none());
    }

    #[test]
    fn exact_projections_read_zero_error_percentiles() {
        let r = AuditReport::of("exact", pairs(&[(0.25, 0.25); 10])).unwrap();
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
        // 100x over-projection pegs the ±8 clamp on every pair.
        let r = AuditReport::of("clamp", pairs(&[(100.0, 1.0), (200.0, 2.0)])).unwrap();
        assert_eq!(r.count, 2);
        assert!((r.mean_rel_error - CLAMP).abs() < 1e-9);
        assert!(
            r.summary().contains("mean_err=>=+800.0%"),
            "{}",
            r.summary()
        );
        // An unsaturated mean keeps the plain signed rendering.
        let r = AuditReport::of("noclamp", pairs(&[(1.5, 1.0)])).unwrap();
        assert!(r.summary().contains("mean_err=+50.0%"), "{}", r.summary());
    }

    #[test]
    fn log_ratio_survives_the_clamp() {
        // A 20x over-projection saturates the relative error, but the
        // unclamped log mean keeps the true magnitude.
        let r = AuditReport::of("log", pairs(&[(20.0, 1.0); 4])).unwrap();
        assert!((r.mean_rel_error - CLAMP).abs() < 1e-9); // clamped
        assert!((r.mean_log_ratio - 20.0f64.ln()).abs() < 1e-9);
        assert!((r.geo_mean_ratio() - 20.0).abs() < 1e-6);
        assert!(r.summary().contains("geo=x20.000"), "{}", r.summary());

        // Mixed over/under projections cancel geometrically: 4x over then
        // 4x under is calibrated on geometric average.
        let r = AuditReport::of("mixed", pairs(&[(4.0, 1.0), (1.0, 4.0)])).unwrap();
        assert!(r.mean_log_ratio.abs() < 1e-9);
        assert!((r.geo_mean_ratio() - 1.0).abs() < 1e-9);

        // A zero projection counts in the relative error (rel = -1) but
        // stays out of the log mean rather than poisoning it with -inf.
        let r = AuditReport::of("zero", pairs(&[(0.0, 1.0), (2.0, 1.0)])).unwrap();
        assert_eq!(r.count, 2);
        assert!((r.mean_rel_error - 0.0).abs() < 1e-9);
        assert!((r.mean_log_ratio - 2.0f64.ln()).abs() < 1e-9);
    }
}
