//! Service metrics: per-tenant traffic counters and latency percentiles,
//! exported as JSON.
//!
//! Latencies are virtual (modeled) seconds — queue wait plus modeled
//! response time — the same clock the admission controller's SLO is
//! written against, so "p99 under the SLO" in a report means exactly what
//! the controller promised.

use sj_obs::Json;
use std::collections::HashMap;

/// Order statistics of one latency population.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Completed-query count the stats are over.
    pub count: usize,
    /// Median latency in seconds.
    pub p50: f64,
    /// 95th percentile in seconds.
    pub p95: f64,
    /// 99th percentile in seconds.
    pub p99: f64,
    /// Mean latency in seconds.
    pub mean: f64,
    /// Worst observed latency in seconds.
    pub max: f64,
}

impl LatencyStats {
    /// Computes stats from an unsorted latency sample.
    ///
    /// Percentiles use the **nearest-rank** convention (see
    /// `percentile`): `pXX` is the smallest observed sample with at
    /// least XX% of the population at or below it — always a real
    /// observation, never an interpolation. Small samples therefore
    /// collapse by design: with `n = 1` every percentile is the lone
    /// sample, and with `n = 2` the median is the *lower* sample
    /// (`⌈0.5·2⌉ = 1`) while p95/p99 are the upper one. Non-finite
    /// samples sort by IEEE total order (NaN last) instead of
    /// panicking.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Self {
            count: sorted.len(),
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// Nearest-rank percentile over a sorted sample: the element at 1-based
/// rank `⌈q·n⌉`, clamped to `[1, n]` — so `q = 0` yields the minimum
/// rather than indexing below the sample, and float rounding at `q = 1`
/// cannot run past the end.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Cap on retained latency samples per tenant: when a tenant's history
/// fills it, the sample is uniformly thinned (every other observation
/// kept), so a long-running service stays bounded in memory while the
/// percentiles remain an unbiased order-statistic estimate of the full
/// stream.
const MAX_LATENCY_SAMPLES: usize = 1 << 16;

/// Raw per-tenant counters accumulated by the service.
#[derive(Clone, Debug, Default)]
pub(crate) struct TenantCounters {
    pub submitted: u64,
    pub admitted: u64,
    pub delayed: u64,
    pub rejected: u64,
    pub completed: u64,
    pub failed: u64,
    /// Uniformly-thinned virtual latencies of completed queries, in
    /// seconds (see [`MAX_LATENCY_SAMPLES`]). Record through
    /// [`Self::record_latency`].
    pub latencies: Vec<f64>,
    /// Earliest virtual arrival among admitted queries.
    pub first_arrival: Option<f64>,
    /// Latest virtual completion.
    pub last_completion: f64,
    /// Keep one of every `2^thinning` observations.
    thinning: u32,
    /// Observations skipped since the last kept one.
    skip: u64,
}

impl TenantCounters {
    /// Records one completed-query latency, thinning the retained sample
    /// once it reaches [`MAX_LATENCY_SAMPLES`].
    pub fn record_latency(&mut self, latency: f64) {
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        self.latencies.push(latency);
        if self.latencies.len() >= MAX_LATENCY_SAMPLES {
            let mut keep = 0;
            for i in (0..self.latencies.len()).step_by(2) {
                self.latencies[keep] = self.latencies[i];
                keep += 1;
            }
            self.latencies.truncate(keep);
            self.thinning += 1;
        }
        self.skip = (1u64 << self.thinning.min(63)) - 1;
    }
    pub fn snapshot(&self, tenant: &str) -> TenantMetrics {
        let span = match self.first_arrival {
            Some(first) => (self.last_completion - first).max(0.0),
            None => 0.0,
        };
        TenantMetrics {
            tenant: tenant.to_string(),
            submitted: self.submitted,
            admitted: self.admitted,
            delayed: self.delayed,
            rejected: self.rejected,
            completed: self.completed,
            failed: self.failed,
            qps: if span > 0.0 {
                self.completed as f64 / span
            } else {
                0.0
            },
            latency: LatencyStats::from_samples(&self.latencies),
        }
    }

    pub fn merge(&mut self, other: &TenantCounters) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.delayed += other.delayed;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.failed += other.failed;
        self.latencies.extend_from_slice(&other.latencies);
        self.first_arrival = match (self.first_arrival, other.first_arrival) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_completion = self.last_completion.max(other.last_completion);
    }
}

/// One tenant's (or the whole service's) traffic summary.
#[derive(Clone, Debug)]
pub struct TenantMetrics {
    /// Tenant name (`"_total"` for the service-wide aggregate).
    pub tenant: String,
    /// Queries submitted (admitted + rejected).
    pub submitted: u64,
    /// Queries admitted (including delayed admissions).
    pub admitted: u64,
    /// Admissions flagged delayed (projected past the SLO).
    pub delayed: u64,
    /// Queries rejected by admission control.
    pub rejected: u64,
    /// Queries completed successfully.
    pub completed: u64,
    /// Queries that failed during execution.
    pub failed: u64,
    /// Completed queries per virtual second over the tenant's active span.
    pub qps: f64,
    /// Virtual-latency order statistics of completed queries.
    pub latency: LatencyStats,
}

/// Full service snapshot, one [`TenantMetrics`] per tenant plus the
/// aggregate and the memory-pressure counters.
#[derive(Clone, Debug)]
pub struct ServiceMetrics {
    /// Per-tenant summaries, sorted by tenant name.
    pub tenants: Vec<TenantMetrics>,
    /// Service-wide aggregate across all tenants.
    pub total: TenantMetrics,
    /// LRU snapshot evictions performed by the pool ledger (plus manual
    /// session evictions) since the last metrics reset.
    pub snapshot_evictions: u64,
    /// Snapshot re-uploads those evictions later caused.
    pub snapshot_reuploads: u64,
    /// Bytes of resident snapshots currently registered in the ledger.
    pub resident_bytes: usize,
    /// The configured snapshot budget, if any.
    pub snapshot_budget: Option<usize>,
    /// The admission SLO in seconds (for report readers).
    pub slo_secs: f64,
}

impl ServiceMetrics {
    pub(crate) fn build(
        counters: &HashMap<String, TenantCounters>,
        snapshot_evictions: u64,
        snapshot_reuploads: u64,
        resident_bytes: usize,
        snapshot_budget: Option<usize>,
        slo_secs: f64,
    ) -> Self {
        let mut names: Vec<&String> = counters.keys().collect();
        names.sort();
        let mut total = TenantCounters::default();
        let tenants = names
            .iter()
            .map(|name| {
                let c = &counters[*name];
                total.merge(c);
                c.snapshot(name)
            })
            .collect();
        Self {
            tenants,
            total: total.snapshot("_total"),
            snapshot_evictions,
            snapshot_reuploads,
            resident_bytes,
            snapshot_budget,
            slo_secs,
        }
    }

    /// Serializes the snapshot through the workspace's shared JSON
    /// writer ([`sj_obs::Json`]) — the same emitter the trace exporter
    /// and bench tables use, so escaping and number formatting match.
    pub fn to_json(&self) -> String {
        let mut tenants = Json::arr();
        for t in &self.tenants {
            tenants = tenants.push(tenant_json(t));
        }
        Json::obj()
            .field("slo_secs", self.slo_secs)
            .field("snapshot_evictions", self.snapshot_evictions)
            .field("snapshot_reuploads", self.snapshot_reuploads)
            .field("resident_bytes", self.resident_bytes)
            .field("snapshot_budget", self.snapshot_budget)
            .field("total", tenant_json(&self.total))
            .field("tenants", tenants)
            .render_pretty()
    }
}

fn tenant_json(t: &TenantMetrics) -> Json {
    Json::obj()
        .field("tenant", t.tenant.as_str())
        .field("submitted", t.submitted)
        .field("admitted", t.admitted)
        .field("delayed", t.delayed)
        .field("rejected", t.rejected)
        .field("completed", t.completed)
        .field("failed", t.failed)
        .field("qps", t.qps)
        .field("p50_secs", t.latency.p50)
        .field("p95_secs", t.latency.p95)
        .field("p99_secs", t.latency.p99)
        .field("mean_secs", t.latency.mean)
        .field("max_secs", t.latency.max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let stats = LatencyStats::from_samples(&samples);
        assert_eq!(stats.p50, 50.0);
        assert_eq!(stats.p95, 95.0);
        assert_eq!(stats.p99, 99.0);
        assert_eq!(stats.max, 100.0);
        assert_eq!(stats.count, 100);
        let one = LatencyStats::from_samples(&[7.0]);
        assert_eq!(one.p50, 7.0);
        assert_eq!(one.p99, 7.0);
        assert_eq!(one.max, 7.0);
        // n = 2 collapses per the documented convention: the median is
        // the lower sample (rank ⌈0.5·2⌉ = 1), the tails the upper.
        let two = LatencyStats::from_samples(&[9.0, 3.0]);
        assert_eq!(two.p50, 3.0);
        assert_eq!(two.p95, 9.0);
        assert_eq!(two.p99, 9.0);
        assert_eq!(two.max, 9.0);
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
    }

    #[test]
    fn empty_samples_yield_zeroed_stats() {
        // A tenant that has admitted but completed nothing (or a fresh
        // service scraping metrics before traffic) must report zeros,
        // not NaNs or panics, all the way through the JSON path.
        let stats = LatencyStats::from_samples(&[]);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.p50, 0.0);
        assert_eq!(stats.p95, 0.0);
        assert_eq!(stats.p99, 0.0);
        assert_eq!(stats.mean, 0.0);
        assert_eq!(stats.max, 0.0);
        let snap = TenantCounters::default().snapshot("idle");
        assert_eq!(snap.latency, LatencyStats::default());
        assert_eq!(snap.qps, 0.0);
        let mut counters = HashMap::new();
        counters.insert("idle".to_string(), TenantCounters::default());
        let json = ServiceMetrics::build(&counters, 0, 0, 0, None, 0.25).to_json();
        assert!(json.contains("\"p99_secs\": 0"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn non_finite_samples_do_not_panic() {
        // NaN sorts last under IEEE total order: it poisons max (by
        // design — garbage in, visible garbage out) without aborting the
        // metrics endpoint.
        let stats = LatencyStats::from_samples(&[1.0, f64::NAN, 2.0]);
        assert_eq!(stats.p50, 2.0);
        assert!(stats.max.is_nan());
    }

    #[test]
    fn latency_samples_stay_bounded_and_representative() {
        let mut c = TenantCounters::default();
        let total = MAX_LATENCY_SAMPLES * 4;
        for i in 0..total {
            c.record_latency(i as f64);
        }
        assert!(c.latencies.len() < MAX_LATENCY_SAMPLES);
        assert!(c.latencies.len() >= MAX_LATENCY_SAMPLES / 4);
        // The thinned sample still spans the stream, so percentiles stay
        // order-statistic estimates of the whole population.
        let stats = LatencyStats::from_samples(&c.latencies);
        let span = total as f64;
        assert!((stats.p50 / span - 0.5).abs() < 0.05, "p50 {}", stats.p50);
        assert!((stats.p99 / span - 0.99).abs() < 0.05, "p99 {}", stats.p99);
    }

    #[test]
    fn qps_spans_arrival_to_completion() {
        let c = TenantCounters {
            completed: 10,
            first_arrival: Some(2.0),
            last_completion: 7.0,
            ..TenantCounters::default()
        };
        assert!((c.snapshot("t").qps - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_snapshot_is_well_formed_enough() {
        let mut counters = HashMap::new();
        counters.insert(
            "alice".to_string(),
            TenantCounters {
                submitted: 5,
                admitted: 4,
                rejected: 1,
                completed: 4,
                latencies: vec![0.1, 0.2, 0.3, 0.4],
                first_arrival: Some(0.0),
                last_completion: 2.0,
                ..TenantCounters::default()
            },
        );
        let m = ServiceMetrics::build(&counters, 3, 2, 4096, Some(8192), 0.25);
        let json = m.to_json();
        assert!(json.contains("\"tenant\": \"alice\""));
        assert!(json.contains("\"snapshot_evictions\": 3"));
        assert!(json.contains("\"snapshot_budget\": 8192"));
        assert!(json.contains("\"_total\""));
        assert_eq!(m.total.completed, 4);
        assert_eq!(m.tenants.len(), 1);
        // The snapshot goes through the shared writer, so it must parse
        // back with the shared reader.
        let doc = sj_obs::json::parse(&json).expect("snapshot parses");
        assert_eq!(
            doc.get("total")
                .and_then(|t| t.get("completed"))
                .and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(doc.get("tenants").map(|t| t.items().len()), Some(1));
    }
}
