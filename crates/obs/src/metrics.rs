//! Named counters: the process-wide registry of the few counts no scoped
//! report owns.
//!
//! A count that belongs to something — a service, a session, a pool, a
//! join — lives in that thing's own report and dies with it. What is
//! left here are the service's fault retries (`sj_serve_retries_total`)
//! and worker panics (`sj_serve_worker_panics_total`). A counter is
//! looked up by name and labels once per event, under one lock; its
//! handle is an atomic, so reading and bumping it never touch the map.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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

/// A counter's identity: its name and its label pairs, sorted.
type Key = (String, Vec<(String, String)>);

/// Named counters behind [`registry`].
#[derive(Default)]
pub struct Registry {
    counters: Mutex<HashMap<Key, Counter>>,
}

impl Registry {
    /// Gets or registers the counter `name` with `labels` (their order
    /// does not matter).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        self.counters
            .lock()
            .entry((name.to_string(), labels))
            .or_insert_with(|| Counter(Arc::default()))
            .clone()
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_roundtrip() {
        let r = Registry::default();
        let c = r.counter("queries", &[("tenant", "a"), ("kind", "join")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same key, labels in any order: the same counter.
        assert_eq!(
            r.counter("queries", &[("kind", "join"), ("tenant", "a")])
                .get(),
            5
        );
        assert_eq!(r.counter("queries", &[("tenant", "b")]).get(), 0);
        assert_eq!(r.counter("retries", &[]).get(), 0);
    }
}
