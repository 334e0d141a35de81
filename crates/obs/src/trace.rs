//! Stage trees on two clocks, rendered as spans.
//!
//! A query's cost is read off its own output. `JoinReport::stages`,
//! `ShardedReport::stages` and `ServeOutput::stages` build a [`Stage`]
//! tree from the figures the output already holds: one node per stage of
//! the query's life (`serve.queue`, `plan.execute`, `gpu.kernels`, …),
//! each with its **wall clock** time (what the host spent) and, where the
//! simulator prices it, its **modeled clock** time (what the modeled
//! hardware would have spent). The simulator runs on virtual time, so a
//! trace showing only wall time would mis-rank every device stage;
//! exports carry both.
//!
//! [`render`] lays a forest of roots out as [`SpanRecord`]s. Nothing here
//! is global: no switch, no buffer, no clock, so no query pays for a
//! trace it is not asked for, and rendering the same outputs twice gives
//! the same records. Exporters: [`chrome_trace`] (Chrome trace-event
//! JSON, loadable in `chrome://tracing` / Perfetto — wall clock on pid 0,
//! modeled clock on pid 1). [`validate`] checks structural
//! well-formedness: unique ids, every parent present, no cycles.

use crate::json::Json;
use std::collections::HashMap;
use std::time::Duration;

/// One label value. `&'static str` and integers store without allocating.
#[derive(Clone, Debug, PartialEq)]
pub enum LabelValue {
    Str(&'static str),
    Text(String),
    U64(u64),
    F64(f64),
}

impl From<&'static str> for LabelValue {
    fn from(v: &'static str) -> Self {
        LabelValue::Str(v)
    }
}
impl From<String> for LabelValue {
    fn from(v: String) -> Self {
        LabelValue::Text(v)
    }
}
impl From<u64> for LabelValue {
    fn from(v: u64) -> Self {
        LabelValue::U64(v)
    }
}
impl From<usize> for LabelValue {
    fn from(v: usize) -> Self {
        LabelValue::U64(v as u64)
    }
}
impl From<u32> for LabelValue {
    fn from(v: u32) -> Self {
        LabelValue::U64(v as u64)
    }
}
impl From<f64> for LabelValue {
    fn from(v: f64) -> Self {
        LabelValue::F64(v)
    }
}

impl LabelValue {
    fn to_json(&self) -> Json {
        match self {
            LabelValue::Str(s) => Json::Str((*s).to_string()),
            LabelValue::Text(s) => Json::Str(s.clone()),
            LabelValue::U64(v) => Json::UInt(*v),
            LabelValue::F64(v) => Json::Num(*v),
        }
    }
}

/// One stage of a query's life, as its output reports it.
///
/// The children of a stage run either one after another (the default) or
/// side by side ([`Stage::side_by_side`]: device streams, overlapped
/// engines). On the wall clock a stage's children take at most its time,
/// and the rest is its self time. The modeled clock is built to add up:
/// sequential children sum to their parent and the largest of side-by-side
/// children equals it, except where the children are engine busy times
/// that overlap and only bound their parent from below.
#[derive(Clone, Debug, PartialEq)]
pub struct Stage {
    /// Stage name — see the README's stage table.
    pub name: &'static str,
    /// Host wall time of the stage.
    pub wall: Duration,
    /// Modeled time of the stage, when the simulator prices it.
    pub modeled: Option<Duration>,
    /// Counts the output holds about the stage. A `device` label also
    /// names the lane [`render`] puts the stage and its children on.
    pub labels: Vec<(&'static str, LabelValue)>,
    /// Whether [`Self::children`] run side by side rather than one after
    /// another.
    pub side_by_side: bool,
    /// Sub-stages, in the order they ran.
    pub children: Vec<Stage>,
    /// Where a root starts on the modeled clock: a served query's
    /// arrival, zero for any other root. [`render`] lays every stage below
    /// a root out from its parent and ignores this there.
    pub start: Duration,
}

impl Stage {
    /// A stage with no labels or children.
    pub fn new(name: &'static str, wall: Duration, modeled: impl Into<Option<Duration>>) -> Self {
        Self {
            name,
            wall,
            modeled: modeled.into(),
            labels: Vec::new(),
            side_by_side: false,
            children: Vec::new(),
            start: Duration::ZERO,
        }
    }

    /// Adds a label.
    pub fn label(mut self, key: &'static str, value: impl Into<LabelValue>) -> Self {
        self.labels.push((key, value.into()));
        self
    }

    /// Appends a child, or nothing for `None` (a stage the run did not
    /// execute).
    pub fn child(mut self, child: impl Into<Option<Stage>>) -> Self {
        self.children.extend(child.into());
        self
    }

    /// Marks the children as running side by side.
    pub fn side_by_side(mut self) -> Self {
        self.side_by_side = true;
        self
    }

    /// The device lane this stage names, if any.
    fn lane(&self) -> Option<u64> {
        self.labels.iter().find_map(|(key, value)| match value {
            LabelValue::U64(device) if *key == "device" => Some(*device),
            _ => None,
        })
    }
}

/// A rendered stage, as handed to exporters.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique nonzero id: the stage's position in render order.
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// Stage name — see the README's stage table.
    pub name: &'static str,
    /// Lane: the device of the nearest stage that names one, else 0.
    pub thread: u64,
    /// Wall start, ns from the start of the rendered forest.
    pub wall_start_ns: u64,
    /// Wall duration in ns.
    pub wall_dur_ns: u64,
    /// Modeled-clock interval `(start_ns, dur_ns)` on the simulator's
    /// virtual timeline, for stages with a modeled time.
    pub modeled_ns: Option<(u64, u64)>,
    /// Stage labels.
    pub labels: Vec<(&'static str, LabelValue)>,
}

/// Lays a forest of stage trees out as span records, ids in render order
/// (a root, then its subtrees depth first). On the wall clock the roots
/// follow one another; on the modeled clock each root starts at its
/// [`Stage::start`]. Below a root, sequential children follow one another
/// from their parent's start on both clocks, and side-by-side children
/// all start there. Rendering the same forest twice gives identical
/// records.
pub fn render(roots: &[Stage]) -> Vec<SpanRecord> {
    let mut out = Vec::new();
    let mut wall = 0;
    for root in roots {
        lay_out(root, 0, 0, (wall, ns(root.start)), &mut out);
        wall += ns(root.wall);
    }
    out
}

fn lay_out(
    stage: &Stage,
    parent: u64,
    lane: u64,
    (wall, modeled): (u64, u64),
    out: &mut Vec<SpanRecord>,
) {
    let id = out.len() as u64 + 1;
    let lane = stage.lane().unwrap_or(lane);
    out.push(SpanRecord {
        id,
        parent,
        name: stage.name,
        thread: lane,
        wall_start_ns: wall,
        wall_dur_ns: ns(stage.wall),
        modeled_ns: stage.modeled.map(|m| (modeled, ns(m))),
        labels: stage.labels.clone(),
    });
    let mut at = (wall, modeled);
    for child in &stage.children {
        lay_out(child, id, lane, at, out);
        if !stage.side_by_side {
            at.0 += ns(child.wall);
            at.1 += child.modeled.map_or(0, ns);
        }
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Structural summary returned by [`validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceStats {
    /// Total spans examined.
    pub spans: usize,
    /// Spans with no parent.
    pub roots: usize,
    /// Longest root-to-leaf chain.
    pub max_depth: usize,
    /// Distinct lanes.
    pub threads: usize,
}

/// Checks well-formedness: ids unique and nonzero, every nonzero parent
/// id present in the batch (no orphan ever exported), parent chains
/// acyclic. Returns summary stats or a description of the first defect.
pub fn validate(records: &[SpanRecord]) -> Result<TraceStats, String> {
    let mut parents: HashMap<u64, u64> = HashMap::with_capacity(records.len());
    for r in records {
        if r.id == 0 {
            return Err(format!("span {:?} has id 0", r.name));
        }
        if parents.insert(r.id, r.parent).is_some() {
            return Err(format!("duplicate span id {} ({})", r.id, r.name));
        }
    }
    let mut roots = 0usize;
    let mut max_depth = 0usize;
    for r in records {
        if r.parent == 0 {
            roots += 1;
        } else if !parents.contains_key(&r.parent) {
            return Err(format!(
                "span {} ({}) has dangling parent {}",
                r.id, r.name, r.parent
            ));
        }
        let mut depth = 1usize;
        let mut cur = r.parent;
        while cur != 0 {
            depth += 1;
            if depth > records.len() {
                return Err(format!("parent cycle reached from span {}", r.id));
            }
            cur = parents[&cur];
        }
        max_depth = max_depth.max(depth);
    }
    let mut threads: Vec<u64> = records.iter().map(|r| r.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    Ok(TraceStats {
        spans: records.len(),
        roots,
        max_depth,
        threads: threads.len(),
    })
}

/// Renders records as Chrome trace-event JSON (open in `chrome://tracing`
/// or <https://ui.perfetto.dev>). Two processes: pid 0 is the wall clock,
/// pid 1 the modeled clock (only stages with a modeled time appear
/// there); a record's lane is its `tid`. Every event carries its span `id` and `parent` in
/// `args`, so the span tree survives the export.
pub fn chrome_trace(records: &[SpanRecord]) -> String {
    let mut events = Json::arr();
    for (pid, label) in [(0u64, "wall clock"), (1u64, "modeled clock")] {
        events = events.push(
            Json::obj()
                .field("name", "process_name")
                .field("ph", "M")
                .field("pid", pid)
                .field("args", Json::obj().field("name", label)),
        );
    }
    for r in records {
        let mut args = Json::obj()
            .field("id", r.id)
            .field("parent", r.parent)
            .field("modeled_us", r.modeled_ns.map(|(_, d)| d as f64 / 1e3));
        for (k, v) in &r.labels {
            args = args.field(k, v.to_json());
        }
        let base = Json::obj()
            .field("name", r.name)
            .field("cat", r.name.split('.').next().unwrap_or("span"))
            .field("ph", "X")
            .field("tid", r.thread);
        events = events.push(
            base.clone()
                .field("pid", 0u64)
                .field("ts", r.wall_start_ns as f64 / 1e3)
                .field("dur", r.wall_dur_ns as f64 / 1e3)
                .field("args", args.clone()),
        );
        if let Some((start, dur)) = r.modeled_ns {
            events = events.push(
                base.field("pid", 1u64)
                    .field("ts", start as f64 / 1e3)
                    .field("dur", dur as f64 / 1e3)
                    .field("args", args),
            );
        }
    }
    Json::obj()
        .field("traceEvents", events)
        .field("displayTimeUnit", "ms")
        .field(
            "otherData",
            Json::obj()
                .field("pid0", "wall clock")
                .field("pid1", "modeled clock"),
        )
        .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// A root on device 1 with two sequential children, the second of
    /// which has two side-by-side children on devices 2 and 3.
    fn forest() -> Vec<Stage> {
        let root = Stage::new("root", ms(10), ms(7))
            .label("device", 1usize)
            .child(Stage::new("a", ms(2), ms(3)))
            .child(
                Stage::new("b", ms(6), ms(4))
                    .side_by_side()
                    .child(Stage::new("left", ms(5), ms(4)).label("device", 2usize))
                    .child(Stage::new("right", ms(1), ms(2)).label("device", 3usize)),
            );
        let second = Stage {
            start: ms(100),
            ..Stage::new("second", ms(1), None)
        };
        vec![root, second]
    }

    #[test]
    fn render_assigns_ids_parents_and_lanes_in_render_order() {
        let records = render(&forest());
        let names: Vec<_> = records
            .iter()
            .map(|r| (r.id, r.parent, r.name, r.thread))
            .collect();
        assert_eq!(
            names,
            vec![
                (1, 0, "root", 1),
                (2, 1, "a", 1),
                (3, 1, "b", 1),
                (4, 3, "left", 2),
                (5, 3, "right", 3),
                (6, 0, "second", 0),
            ]
        );
        let stats = validate(&records).unwrap();
        assert_eq!((stats.roots, stats.max_depth, stats.threads), (2, 3, 4));
        assert_eq!(records[0].labels, vec![("device", LabelValue::U64(1))]);
    }

    #[test]
    fn render_lays_out_sequential_and_side_by_side_children() {
        let records = render(&forest());
        let at = |name: &str| records.iter().find(|r| r.name == name).unwrap();
        let millis = |v: u64| v * 1_000_000;
        // Modeled: `b` follows `a`; its children both start where it does.
        assert_eq!(at("root").modeled_ns, Some((0, millis(7))));
        assert_eq!(at("a").modeled_ns, Some((0, millis(3))));
        assert_eq!(at("b").modeled_ns, Some((millis(3), millis(4))));
        assert_eq!(at("left").modeled_ns, Some((millis(3), millis(4))));
        assert_eq!(at("right").modeled_ns, Some((millis(3), millis(2))));
        // A root starts at its own modeled start; no modeled time, no
        // modeled interval.
        assert_eq!(at("second").modeled_ns, None);
        // Wall: the same layout, and the roots follow one another.
        assert_eq!(at("b").wall_start_ns, millis(2));
        assert_eq!(at("right").wall_start_ns, millis(2));
        assert_eq!(at("second").wall_start_ns, millis(10));
        // Rendering again gives the same records.
        let again = render(&forest());
        for (x, y) in records.iter().zip(&again) {
            assert_eq!(
                (x.id, x.wall_start_ns, x.modeled_ns),
                (y.id, y.wall_start_ns, y.modeled_ns)
            );
        }
        let late = Stage {
            start: ms(100),
            ..Stage::new("late", ms(1), ms(1))
        };
        assert_eq!(
            render(&[late])[0].modeled_ns,
            Some((millis(100), millis(1)))
        );
    }

    #[test]
    fn chrome_export_parses_and_keeps_both_clocks() {
        let records = render(&[Stage::new("serve.query", ms(1), ms(500)).label("device", 0usize)]);
        let text = chrome_trace(&records);
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2, "wall + modeled event");
        let pids: Vec<f64> = spans
            .iter()
            .map(|e| e.get("pid").unwrap().as_f64().unwrap())
            .collect();
        assert!(pids.contains(&0.0) && pids.contains(&1.0));
        for e in &spans {
            assert!(e.get("args").unwrap().get("id").unwrap().as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn validate_rejects_dangling_parent() {
        let rec = |id, parent| SpanRecord {
            id,
            parent,
            name: "x",
            thread: 1,
            wall_start_ns: 0,
            wall_dur_ns: 1,
            modeled_ns: None,
            labels: Vec::new(),
        };
        assert!(validate(&[rec(1, 0), rec(2, 1)]).is_ok());
        let err = validate(&[rec(1, 0), rec(2, 99)]).unwrap_err();
        assert!(err.contains("dangling"), "{err}");
    }
}
