//! The traced run's span recorder.
//!
//! Spans are opened by the benchmark around the public calls it makes
//! into each layer, so the program under test runs unchanged (its own
//! `sj_obs` tracer stays disabled). A span whose interval the benchmark
//! cannot observe — a phase duration a report returns — is *placed*: it
//! carries the reported duration and starts where its previous sibling
//! ended. Everything stays in memory until the run ends.

use sj_obs::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Name of every op's root span; its self time is the op time no layer
/// span covers (`trace.unattributed_s`).
const OP: &str = "op";

/// How a per-op value folds into the run's per-layer metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    /// Median over traced ops (sizes and times).
    Median,
    /// Mean over traced ops (per-op 0/1 flags become fractions).
    Mean,
    /// Sum over traced ops (rare events such as retries).
    Sum,
}

struct Span {
    op: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: Option<u64>,
    placed: bool,
}

/// In-memory spans and per-op values of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    values: Vec<(usize, &'static str, f64, Agg)>,
    ops: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            values: Vec::new(),
            ops: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a new op's root span and returns its id.
    pub fn begin_op(&mut self) -> usize {
        self.ops += 1;
        self.push(None, OP, self.now_ns(), None, false)
    }

    /// Closes the op's root span, and with it any span an error left open.
    pub fn end_op(&mut self, op: usize) {
        let now = self.now_ns();
        let op_index = self.spans[op].op;
        for s in self.spans.iter_mut().filter(|s| s.op == op_index) {
            s.end_ns.get_or_insert(now);
        }
    }

    /// Opens a span under `parent`; close it with [`Self::close`].
    pub fn open(&mut self, parent: usize, name: &'static str) -> usize {
        self.push(Some(parent), name, self.now_ns(), None, false)
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = Some(now);
    }

    /// Records a span of a reported duration under `parent`, starting
    /// where the parent's last child ended (or at the parent's start).
    /// Zero durations record nothing.
    pub fn place(&mut self, parent: usize, name: &'static str, dur: Duration) -> Option<usize> {
        if dur.is_zero() {
            return None;
        }
        let start = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .filter_map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        let end = start + dur.as_nanos() as u64;
        Some(self.push(Some(parent), name, start, Some(end), true))
    }

    /// Records a per-op layer value (a count, size or reported time).
    pub fn value(&mut self, name: &'static str, v: f64, agg: Agg) {
        self.values.push((self.ops, name, v, agg));
    }

    fn push(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: Option<u64>,
        placed: bool,
    ) -> usize {
        self.spans.push(Span {
            op: self.ops,
            parent,
            name,
            start_ns,
            end_ns,
            placed,
        });
        self.spans.len() - 1
    }

    fn dur_ns(&self, s: &Span) -> u64 {
        s.end_ns.unwrap_or(s.start_ns).saturating_sub(s.start_ns)
    }

    /// Self time (seconds) of every span: its duration minus its
    /// children's durations. Children never overlap — observed ones are
    /// sequential calls, placed ones are laid end to end.
    fn self_secs(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += self.dur_ns(s);
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| self.dur_ns(s).saturating_sub(c) as f64 * 1e-9)
            .collect()
    }

    /// Per-layer metrics: each span name's self time as `<name>_s`, the
    /// root's as `trace.unattributed_s`, medians over ops (an op without
    /// the span counts 0), plus every recorded value folded by its
    /// [`Agg`].
    pub fn layer_metrics(&self) -> BTreeMap<String, f64> {
        let self_secs = self.self_secs();
        let mut per_op: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (s, secs) in self.spans.iter().zip(&self_secs) {
            let metric = if s.name == OP {
                "trace.unattributed_s".to_string()
            } else {
                format!("{}_s", s.name)
            };
            let slots = per_op.entry(metric).or_insert_with(|| vec![0.0; self.ops]);
            slots[s.op - 1] += secs;
        }
        let mut out: BTreeMap<String, f64> = per_op
            .into_iter()
            .map(|(k, v)| (k, crate::measure::median(&v)))
            .collect();

        let mut by_name: BTreeMap<&str, (Agg, Vec<f64>)> = BTreeMap::new();
        for &(_, name, v, agg) in &self.values {
            by_name.entry(name).or_insert((agg, Vec::new())).1.push(v);
        }
        for (name, (agg, vs)) in by_name {
            let folded = match agg {
                Agg::Median => crate::measure::median(&vs),
                Agg::Mean => vs.iter().sum::<f64>() / vs.len() as f64,
                Agg::Sum => vs.iter().sum(),
            };
            out.insert(name.to_string(), folded);
        }
        out
    }

    /// The spans and values as JSON: one object per span with its op,
    /// parent, interval (ns since the run began) and whether it was
    /// placed from a reported duration.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj()
                .field("id", id)
                .field("op", s.op)
                .field("parent", s.parent)
                .field("name", s.name)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns.unwrap_or(s.start_ns))
                .field("placed", s.placed)
        });
        let values = self.values.iter().map(|&(op, name, v, _)| {
            Json::obj()
                .field("op", op)
                .field("name", name)
                .field("value", v)
        });
        Json::obj()
            .field("spans", spans.collect::<Vec<_>>())
            .field("values", values.collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_unattributed_is_the_root_rest() {
        let mut t = Tracer::new();
        let op = t.begin_op();
        let a = t.open(op, "a");
        std::thread::sleep(Duration::from_millis(2));
        t.close(a);
        let b = t.place(op, "b", Duration::from_millis(3)).unwrap();
        t.place(b, "c", Duration::from_millis(1));
        t.end_op(op);
        let m = t.layer_metrics();
        assert!(m["a_s"] >= 0.002);
        assert!((m["b_s"] - 0.002).abs() < 1e-9);
        assert!((m["c_s"] - 0.001).abs() < 1e-9);
        assert!(m.contains_key("trace.unattributed_s"));
    }

    #[test]
    fn absent_span_counts_zero_and_values_fold() {
        let mut t = Tracer::new();
        for i in 0..3 {
            let op = t.begin_op();
            if i == 0 {
                t.place(op, "x", Duration::from_millis(5));
            }
            t.value("n", i as f64, Agg::Sum);
            t.value("f", (i % 2) as f64, Agg::Mean);
            t.end_op(op);
        }
        let m = t.layer_metrics();
        assert_eq!(m["x_s"], 0.0);
        assert_eq!(m["n"], 3.0);
        assert!((m["f"] - 1.0 / 3.0).abs() < 1e-12);
    }
}
