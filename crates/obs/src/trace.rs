//! Span tracing on two clocks.
//!
//! A span is one timed stage of a query's life — `serve.admission`,
//! `plan.execute`, `gpu.kernel` — with an id, a parent id, labels, and
//! *two* time intervals: the **wall clock** (host `Instant`, what the
//! process actually spent) and the **modeled clock** (the simulator's
//! virtual time, what the modeled hardware would have spent). The
//! simulator runs on virtual time, so a trace showing only wall time
//! would mis-rank every device stage; exports carry both.
//!
//! Tracing is off by default and costs one relaxed [`AtomicBool`] load
//! per call site when disabled — [`Span::enter`] returns an inert guard
//! without touching the clock, the ring, or the allocator. Enabled spans
//! are recorded into **per-thread ring buffers** (bounded; overflow
//! overwrites the oldest records and is counted), so tracing never
//! allocates on the hot path beyond the ring itself and never takes a
//! cross-thread lock except on first use per thread and at [`drain`].
//!
//! Parentage is implicit within a thread (a thread-local span stack) and
//! explicit across threads: a producer passes [`SpanGuard::id`] to the
//! consumer, which opens its span with [`Span::child_of`]. The modeled
//! clock is threaded the same way — a worker seeds its thread's modeled
//! cursor ([`set_modeled_cursor`]) from the scheduler's virtual start
//! time, and spans that report a modeled duration
//! ([`SpanGuard::set_modeled_dur`]) advance it.
//!
//! Exporters: [`chrome_trace`] (Chrome trace-event JSON, loadable in
//! `chrome://tracing` / Perfetto — wall clock on pid 0, modeled clock on
//! pid 1) and [`flame_summary`] (a self-describing text flame profile).
//! [`validate`] checks structural well-formedness: unique ids, every
//! parent live, no cycles.

use crate::json::Json;
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Global tracing switch. Reading it is the entire disabled-path cost.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic span-id source; id 0 means "no span" / root parent.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Monotonic thread-id source for trace `tid`s (stable, small, unlike
/// `std::thread::ThreadId`'s opaque values).
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// Spans each thread's ring retains; older records are overwritten and
/// counted in [`dropped`].
const RING_CAPACITY: usize = 1 << 15;

/// Whether tracing is currently enabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off. Spans already recorded stay in their rings.
pub fn set_enabled(on: bool) {
    // Initialize the epoch before the first span can observe it.
    let _ = epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's trace epoch — capture one to pass to
/// [`SpanGuard::set_wall_start_ns`] for retroactive spans (queue waits).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

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

/// A finished span as stored in the rings and handed to exporters.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique nonzero span id.
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// Stage name — see the README's span taxonomy.
    pub name: &'static str,
    /// Small dense id of the recording thread.
    pub thread: u64,
    /// Wall start, ns since the trace epoch.
    pub wall_start_ns: u64,
    /// Wall duration in ns.
    pub wall_dur_ns: u64,
    /// Modeled-clock interval `(start_ns, dur_ns)` on the simulator's
    /// virtual timeline, when the stage reported one.
    pub modeled_ns: Option<(u64, u64)>,
    /// Stage labels (empty unless the site attached any).
    pub labels: Vec<(&'static str, LabelValue)>,
}

struct Ring {
    buf: Vec<SpanRecord>,
    /// Next overwrite position once the ring is full.
    next: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, rec: SpanRecord) {
        if self.buf.len() < RING_CAPACITY {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
            self.next = (self.next + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    /// Ids of the spans currently open on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// The thread's position on the modeled clock, in virtual seconds
    /// (NaN = not seeded).
    static MODELED_CURSOR: Cell<f64> = const { Cell::new(f64::NAN) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

fn record(rec: SpanRecord) {
    LOCAL_RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let ring = Arc::new(Mutex::new(Ring {
                buf: Vec::new(),
                next: 0,
                dropped: 0,
            }));
            rings().lock().push(Arc::clone(&ring));
            ring
        });
        ring.lock().push(rec);
    });
}

/// Seeds this thread's modeled clock (virtual seconds). Workers call it
/// before running a job so device-stage spans land at the job's virtual
/// start time.
pub fn set_modeled_cursor(secs: f64) {
    MODELED_CURSOR.with(|c| c.set(secs));
}

/// The thread's modeled-clock position, NaN if never seeded.
pub fn modeled_cursor() -> f64 {
    MODELED_CURSOR.with(|c| c.get())
}

/// Span entry points. `Span` is a namespace; the value you hold is the
/// [`SpanGuard`].
pub struct Span;

impl Span {
    /// Opens a span as a child of the thread's innermost open span (root
    /// if none). When tracing is disabled this is one atomic load and
    /// returns an inert guard.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard(None);
        }
        Self::start(name, None)
    }

    /// Opens a span under an explicit parent id — the cross-thread edge.
    /// The span also joins this thread's stack so its descendants nest
    /// under it.
    #[inline]
    pub fn child_of(parent: u64, name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard(None);
        }
        Self::start(name, Some(parent))
    }

    fn start(name: &'static str, parent: Option<u64>) -> SpanGuard {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent =
            parent.unwrap_or_else(|| STACK.with(|s| s.borrow().last().copied().unwrap_or(0)));
        STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard(Some(Box::new(Active {
            rec: SpanRecord {
                id,
                parent,
                name,
                thread: thread_id(),
                wall_start_ns: now_ns(),
                wall_dur_ns: 0,
                modeled_ns: None,
                labels: Vec::new(),
            },
            started: Instant::now(),
            cursor_at_enter: modeled_cursor(),
        })))
    }
}

struct Active {
    rec: SpanRecord,
    started: Instant,
    cursor_at_enter: f64,
}

/// RAII guard for an open span; the record is written when it drops.
/// Inert (all methods no-ops, `id()` = 0) when tracing was disabled at
/// entry.
pub struct SpanGuard(Option<Box<Active>>);

impl SpanGuard {
    /// The span's id (0 when tracing is disabled) — pass to
    /// [`Span::child_of`] on another thread.
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| a.rec.id)
    }

    /// Attaches a label. Prefer `&'static str` / integer values; they
    /// don't allocate.
    pub fn label(&mut self, key: &'static str, value: impl Into<LabelValue>) {
        if let Some(a) = &mut self.0 {
            a.rec.labels.push((key, value.into()));
        }
    }

    /// Sets the modeled interval explicitly (virtual seconds), and moves
    /// the thread's modeled cursor to its end.
    pub fn set_modeled(&mut self, start_secs: f64, dur_secs: f64) {
        if let Some(a) = &mut self.0 {
            a.rec.modeled_ns = Some((secs_to_ns(start_secs), secs_to_ns(dur_secs)));
            set_modeled_cursor(start_secs + dur_secs.max(0.0));
        }
    }

    /// Reports the stage's modeled duration (virtual seconds). The span
    /// starts at the thread's modeled cursor — or, unseeded, at the
    /// cursor value captured on entry (0 if never seeded) — and advances
    /// the cursor past itself, so sibling device stages lay out
    /// sequentially on the modeled timeline.
    pub fn set_modeled_dur(&mut self, dur_secs: f64) {
        if let Some(a) = &mut self.0 {
            let cursor = modeled_cursor();
            let start = if cursor.is_nan() {
                if a.cursor_at_enter.is_nan() {
                    0.0
                } else {
                    a.cursor_at_enter
                }
            } else {
                cursor
            };
            a.rec.modeled_ns = Some((secs_to_ns(start), secs_to_ns(dur_secs)));
            set_modeled_cursor(start + dur_secs.max(0.0));
        }
    }

    /// Backdates the span's wall start (ns from [`now_ns`]) — for stages
    /// whose start was observed before the span could be opened, like a
    /// queue wait recorded by the worker that popped the job.
    pub fn set_wall_start_ns(&mut self, start_ns: u64) {
        if let Some(a) = &mut self.0 {
            a.rec.wall_start_ns = start_ns;
        }
    }
}

fn secs_to_ns(secs: f64) -> u64 {
    (secs.max(0.0) * 1e9) as u64
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut a) = self.0.take() else {
            return;
        };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards drop in LIFO order per thread; pop defensively in
            // case a caller leaked an inner guard past its scope.
            if let Some(pos) = stack.iter().rposition(|&id| id == a.rec.id) {
                stack.truncate(pos);
            }
        });
        let measured = a.started.elapsed().as_nanos() as u64;
        a.rec.wall_dur_ns = now_ns().saturating_sub(a.rec.wall_start_ns).max(measured);
        record(a.rec);
    }
}

/// Removes and returns every recorded span, across all threads, sorted
/// by wall start.
pub fn drain() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for ring in rings().lock().iter() {
        let mut ring = ring.lock();
        out.append(&mut ring.buf);
        ring.next = 0;
    }
    out.sort_by_key(|r| r.wall_start_ns);
    out
}

/// Discards all recorded spans and overflow counts.
pub fn clear() {
    for ring in rings().lock().iter() {
        let mut ring = ring.lock();
        ring.buf.clear();
        ring.next = 0;
        ring.dropped = 0;
    }
}

/// Spans lost to ring overflow since the last [`clear`].
pub fn dropped() -> u64 {
    rings().lock().iter().map(|r| r.lock().dropped).sum()
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
    /// Distinct recording threads.
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
/// pid 1 the modeled clock (only spans that reported a modeled interval
/// appear there). Every event carries its span `id` and `parent` in
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
                .field("pid1", "modeled clock")
                .field("dropped_spans", dropped()),
        )
        .render_pretty()
}

/// Renders a self-describing text flame summary: one line per distinct
/// root-to-span name path, with call count, total/self wall time, and
/// total modeled time, sorted by wall time.
pub fn flame_summary(records: &[SpanRecord]) -> String {
    let index: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let mut child_wall: HashMap<u64, u64> = HashMap::new();
    for r in records {
        if r.parent != 0 {
            *child_wall.entry(r.parent).or_insert(0) += r.wall_dur_ns;
        }
    }
    let path_of = |r: &SpanRecord| -> String {
        let mut names = vec![r.name];
        let mut cur = r.parent;
        while cur != 0 && names.len() <= records.len() {
            match index.get(&cur) {
                Some(p) => {
                    names.push(p.name);
                    cur = p.parent;
                }
                None => break,
            }
        }
        names.reverse();
        names.join(";")
    };
    // path -> (count, wall, self_wall, modeled)
    let mut agg: HashMap<String, (u64, u64, u64, u64)> = HashMap::new();
    for r in records {
        let own = r
            .wall_dur_ns
            .saturating_sub(child_wall.get(&r.id).copied().unwrap_or(0));
        let e = agg.entry(path_of(r)).or_insert((0, 0, 0, 0));
        e.0 += 1;
        e.1 += r.wall_dur_ns;
        e.2 += own;
        e.3 += r.modeled_ns.map_or(0, |(_, d)| d);
    }
    let mut rows: Vec<(String, (u64, u64, u64, u64))> = agg.into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then_with(|| a.0.cmp(&b.0)));
    let mut out = String::from(
        "# flame summary: path count wall_ms self_ms modeled_ms\n\
         # path = root;...;span stage names, ';'-joined; self = wall minus child wall\n",
    );
    for (path, (count, wall, own, modeled)) in rows {
        out.push_str(&format!(
            "{path} {count} {:.3} {:.3} {:.3}\n",
            wall as f64 / 1e6,
            own as f64 / 1e6,
            modeled as f64 / 1e6,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; tests that enable it serialize
    /// here so parallel test threads can't interleave drains.
    fn lock() -> parking_lot::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(())).lock()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        set_enabled(false);
        clear();
        {
            let mut s = Span::enter("noop");
            s.label("k", 1u64);
            assert_eq!(s.id(), 0);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn nesting_and_cross_thread_parents() {
        let _g = lock();
        set_enabled(true);
        clear();
        let root_id;
        {
            let root = Span::enter("root");
            root_id = root.id();
            {
                let mut child = Span::enter("child");
                child.label("n", 3u64);
            }
            let rid = root.id();
            std::thread::spawn(move || {
                let _remote = Span::child_of(rid, "remote");
            })
            .join()
            .unwrap();
        }
        set_enabled(false);
        let records = drain();
        assert_eq!(records.len(), 3);
        let stats = validate(&records).unwrap();
        assert_eq!(stats.roots, 1);
        assert_eq!(stats.max_depth, 2);
        assert_eq!(stats.threads, 2);
        let child = records.iter().find(|r| r.name == "child").unwrap();
        assert_eq!(child.parent, root_id);
        assert_eq!(child.labels, vec![("n", LabelValue::U64(3))]);
        let remote = records.iter().find(|r| r.name == "remote").unwrap();
        assert_eq!(remote.parent, root_id);
    }

    #[test]
    fn modeled_cursor_lays_out_sequentially() {
        let _g = lock();
        set_enabled(true);
        clear();
        set_modeled_cursor(10.0);
        {
            let mut a = Span::enter("a");
            a.set_modeled_dur(2.0);
        }
        {
            let mut b = Span::enter("b");
            b.set_modeled_dur(3.0);
        }
        set_enabled(false);
        let records = drain();
        let a = records.iter().find(|r| r.name == "a").unwrap();
        let b = records.iter().find(|r| r.name == "b").unwrap();
        assert_eq!(a.modeled_ns, Some((10_000_000_000, 2_000_000_000)));
        assert_eq!(b.modeled_ns, Some((12_000_000_000, 3_000_000_000)));
        set_modeled_cursor(f64::NAN);
    }

    #[test]
    fn chrome_export_parses_and_keeps_both_clocks() {
        let _g = lock();
        set_enabled(true);
        clear();
        {
            let mut s = Span::enter("serve.query");
            s.set_modeled(1.0, 0.5);
            s.label("tenant", "astro");
        }
        set_enabled(false);
        let records = drain();
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
        set_modeled_cursor(f64::NAN);
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

    #[test]
    fn ring_overflow_drops_oldest_not_process() {
        let _g = lock();
        set_enabled(true);
        clear();
        for _ in 0..RING_CAPACITY + 10 {
            let _s = Span::enter("hot");
        }
        set_enabled(false);
        let records = drain();
        assert_eq!(records.len(), RING_CAPACITY);
        assert!(dropped() >= 10);
        clear();
    }

    #[test]
    fn flame_summary_aggregates_paths() {
        let _g = lock();
        set_enabled(true);
        clear();
        {
            let _root = Span::enter("plan.execute");
            let _k1 = Span::enter("gpu.kernel");
            drop(_k1);
            let _k2 = Span::enter("gpu.kernel");
        }
        set_enabled(false);
        let records = drain();
        let flame = flame_summary(&records);
        assert!(flame.contains("plan.execute;gpu.kernel 2 "), "{flame}");
        assert!(flame.starts_with("# flame summary"));
    }
}
