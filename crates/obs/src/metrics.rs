//! The unified metrics registry: counters, gauges, and fixed-bucket
//! histograms behind one name+label namespace, with JSON and
//! Prometheus-text exposition.
//!
//! Handles are cheap `Arc`s over atomics — register once (or per call;
//! registration is a sharded map lookup), then update lock-free on the
//! hot path. Histograms are **fixed-bucket**: an observation is one
//! binary search plus two atomic adds, so they replace the
//! sort-the-whole-sample latency path for streaming use; snapshots of
//! identically-bucketed histograms merge associatively
//! ([`HistogramSnapshot::merge`]), which the property tests pin down.
//!
//! The registry is sharded by key hash so concurrent registration from
//! worker threads doesn't convoy on one lock; updates after registration
//! never touch the map at all.

use crate::json::Json;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Map shards in a [`Registry`].
const SHARDS: usize = 16;

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (stored as `f64` bits).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `d` (CAS loop; gauges are low-rate by design).
    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds, strictly increasing; observations above the last
    /// bound land in the implicit overflow bucket.
    bounds: Vec<f64>,
    /// One count per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation: a binary search over the bounds plus
    /// atomic adds. NaN observations are dropped.
    pub fn observe(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let c = &self.0;
        // First bucket whose upper bound contains v (bounds inclusive).
        let idx = c.bounds.partition_point(|&b| b < v);
        c.counts[idx].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = c.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match c
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// A point-in-time copy for merging, quantiles, and exposition.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            counts: self
                .0
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed)),
            count: self.0.count.load(Ordering::Relaxed),
        }
    }
}

/// An owned histogram state — what exposition and tests operate on.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (inclusive), strictly increasing.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`, the last
    /// being the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot over `bounds`.
    pub fn empty(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Pointwise merge of two identically-bucketed snapshots — the
    /// associative, commutative combine that makes sharded collection
    /// sound.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ (merging those is a schema
    /// error, not data).
    pub fn merge(&self, other: &Self) -> Self {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different buckets"
        );
        Self {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
            sum: self.sum + other.sum,
            count: self.count + other.count,
        }
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Streaming quantile estimate: finds the bucket holding the
    /// nearest-rank observation and interpolates linearly within it.
    /// The overflow bucket reports the last finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let hi = self.bounds.get(i).copied().unwrap_or(
                    // Overflow bucket: no upper bound to interpolate to.
                    *self.bounds.last().expect("non-empty bounds"),
                );
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let frac = (rank - seen) as f64 / c as f64;
                return lo + (hi - lo) * frac;
            }
            seen += c;
        }
        *self.bounds.last().expect("non-empty bounds")
    }
}

/// `count` exponential bucket bounds starting at `start`, each `factor`
/// larger than the last.
pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0 && count > 0);
    let mut out = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        out.push(b);
        b *= factor;
    }
    out
}

/// Buckets for *signed relative error* of a cost projection,
/// `(projected − measured) / measured`: symmetric log-spaced bounds from
/// ±1% to ±8×, so both the sign of the drift and its magnitude survive
/// the histogram.
pub fn rel_error_buckets() -> Vec<f64> {
    let mags = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0];
    let mut out: Vec<f64> = mags.iter().rev().map(|m| -m).collect();
    out.push(0.0);
    out.extend_from_slice(&mags);
    out
}

#[derive(Clone, Debug)]
enum Entry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A metric's identity: name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

impl Key {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    fn shard(&self) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }
}

/// A sharded registry of named metrics. Most code uses the process-wide
/// [`registry`]; tests can make private ones.
pub struct Registry {
    shards: Vec<Mutex<HashMap<Key, Entry>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Gets or registers a counter.
    ///
    /// # Panics
    ///
    /// Panics if the name+labels is already registered as another type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = Key::new(name, labels);
        let mut shard = self.shards[key.shard()].lock();
        match shard
            .entry(key)
            .or_insert_with(|| Entry::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Entry::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Gets or registers a gauge.
    ///
    /// # Panics
    ///
    /// Panics on a type clash with an existing registration.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = Key::new(name, labels);
        let mut shard = self.shards[key.shard()].lock();
        match shard
            .entry(key)
            .or_insert_with(|| Entry::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))))
        {
            Entry::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Gets or registers a histogram. If the metric already exists, the
    /// existing handle is returned and `bounds` is ignored — buckets are
    /// part of the schema and fixed at first registration.
    ///
    /// # Panics
    ///
    /// Panics on a type clash, on empty bounds, or on non-increasing
    /// bounds.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram {name} needs buckets");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name} bounds must be strictly increasing"
        );
        let key = Key::new(name, labels);
        let mut shard = self.shards[key.shard()].lock();
        match shard.entry(key).or_insert_with(|| {
            Entry::Histogram(Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                count: AtomicU64::new(0),
            })))
        }) {
            Entry::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Drops every registered metric. Live handles keep working but are
    /// no longer exported — callers re-register after a reset.
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// A sorted point-in-time copy of every metric.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (key, entry) in shard.lock().iter() {
                out.push(MetricSnapshot {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    value: match entry {
                        Entry::Counter(c) => MetricValue::Counter(c.get()),
                        Entry::Gauge(g) => MetricValue::Gauge(g.get()),
                        Entry::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                });
            }
        }
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out
    }

    /// JSON exposition: an array of `{name, labels, type, ...}` objects.
    pub fn to_json(&self) -> String {
        let mut arr = Json::arr();
        for m in self.snapshot() {
            let mut labels = Json::obj();
            for (k, v) in &m.labels {
                labels = labels.field(k, v.as_str());
            }
            let base = Json::obj()
                .field("name", m.name.as_str())
                .field("labels", labels);
            arr = arr.push(match m.value {
                MetricValue::Counter(v) => base.field("type", "counter").field("value", v),
                MetricValue::Gauge(v) => base.field("type", "gauge").field("value", v),
                MetricValue::Histogram(h) => base
                    .field("type", "histogram")
                    .field("count", h.count)
                    .field("sum", h.sum)
                    .field("mean", h.mean())
                    .field("p50", h.quantile(0.50))
                    .field("p95", h.quantile(0.95))
                    .field("p99", h.quantile(0.99))
                    .field(
                        "buckets",
                        Json::Arr(h.bounds.iter().map(|&b| Json::Num(b)).collect()),
                    )
                    .field(
                        "counts",
                        Json::Arr(h.counts.iter().map(|&c| Json::UInt(c)).collect()),
                    ),
            });
        }
        arr.render_pretty()
    }

    /// Prometheus text exposition (v0.0.4): counters and gauges as-is,
    /// histograms with cumulative `_bucket{le=...}` series plus `_sum`
    /// and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for m in self.snapshot() {
            let name = sanitize(&m.name);
            if name != last_name {
                let kind = match m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_name = name.clone();
            }
            match m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name}{} {v}", label_set(&m.labels, None));
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name}{} {v}", label_set(&m.labels, None));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &c) in h.counts.iter().enumerate() {
                        cum += c;
                        let le = h
                            .bounds
                            .get(i)
                            .map_or("+Inf".to_string(), |b| format!("{b}"));
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cum}",
                            label_set(&m.labels, Some(&le))
                        );
                    }
                    let _ = writeln!(out, "{name}_sum{} {}", label_set(&m.labels, None), h.sum);
                    let _ = writeln!(
                        out,
                        "{name}_count{} {}",
                        label_set(&m.labels, None),
                        h.count
                    );
                }
            }
        }
        out
    }
}

/// One exported metric.
#[derive(Clone, Debug)]
pub struct MetricSnapshot {
    /// Metric name as registered.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// The typed value of a [`MetricSnapshot`].
#[derive(Clone, Debug)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize(k), v.replace('"', "\\\"")))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// The process-wide registry every instrumented crate reports into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("queries", &[("tenant", "a")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same key returns the same underlying counter.
        assert_eq!(r.counter("queries", &[("tenant", "a")]).get(), 5);
        let g = r.gauge("pressure", &[]);
        g.set(2.5);
        g.add(-0.5);
        assert!((g.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let r = Registry::new();
        let h = r.histogram("lat", &[], &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        // 1.0 lands in the first bucket (bounds inclusive).
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.count, 5);
        assert!((s.sum - 106.0).abs() < 1e-9);
        assert!(s.quantile(0.5) <= 2.0);
        assert_eq!(s.quantile(1.0), 4.0, "overflow reports last bound");
        assert!((s.mean() - 21.2).abs() < 1e-9);
    }

    #[test]
    fn merge_is_pointwise() {
        let a = HistogramSnapshot {
            bounds: vec![1.0, 2.0],
            counts: vec![1, 2, 3],
            sum: 10.0,
            count: 6,
        };
        let b = HistogramSnapshot {
            bounds: vec![1.0, 2.0],
            counts: vec![4, 0, 1],
            sum: 7.0,
            count: 5,
        };
        let m = a.merge(&b);
        assert_eq!(m.counts, vec![5, 2, 4]);
        assert_eq!(m.count, 11);
        assert!((m.sum - 17.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different buckets")]
    fn merge_rejects_schema_mismatch() {
        let a = HistogramSnapshot::empty(&[1.0]);
        let b = HistogramSnapshot::empty(&[2.0]);
        let _ = a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_clash_panics() {
        let r = Registry::new();
        let _ = r.counter("x", &[]);
        let _ = r.gauge("x", &[]);
    }

    #[test]
    fn exposition_formats() {
        let r = Registry::new();
        r.counter("sj_queries_total", &[("tenant", "a")]).add(3);
        r.gauge("sj_pool_pressure", &[]).set(1.5);
        r.histogram("sj_latency_secs", &[], &[0.1, 1.0])
            .observe(0.5);
        let json = r.to_json();
        let doc = crate::json::parse(&json).unwrap();
        assert_eq!(doc.items().len(), 3);
        let prom = r.to_prometheus();
        assert!(prom.contains("# TYPE sj_queries_total counter"));
        assert!(prom.contains("sj_queries_total{tenant=\"a\"} 3"));
        assert!(prom.contains("sj_latency_secs_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("sj_latency_secs_count 1"));
    }

    #[test]
    fn rel_error_buckets_are_increasing_and_symmetric() {
        let b = rel_error_buckets();
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!(b.contains(&0.0));
        assert_eq!(b.first().copied(), Some(-8.0));
        assert_eq!(b.last().copied(), Some(8.0));
    }

    #[test]
    fn reset_clears_exports() {
        let r = Registry::new();
        r.counter("gone", &[]).inc();
        r.reset();
        assert!(r.snapshot().is_empty());
    }
}
