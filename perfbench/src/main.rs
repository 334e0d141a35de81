//! Wall-clock benchmark of the self-join stack; see `README.md` beside
//! this package for the workloads, metrics and noise rules.
//!
//! ```text
//! perfbench --workload <join-syn6d|shard-syn4d|serve-2d> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload with one client thread: it generates the
//! inputs from the seed, builds the host reference tables, sets the
//! system up several times, then runs ops back to back for `--seconds`
//! of wall time. Every op's answer is compared with the reference outside
//! its timed interval. The last line of standard output is one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! of a traced run with `--trace 1`.

mod counts;
mod heap;
mod join_syn6d;
mod measure;
mod serve_2d;
mod shard_syn4d;
mod trace;

use counts::CountCheck;
use grid_join::NeighborTable;
use sj_obs::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// How often a run sets the system up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Ops a run measures at least, however short `--seconds` is.
const MIN_OPS: usize = 8;
/// Bytes per MB in `peak_heap_mb`.
const MB: f64 = (1 << 20) as f64;
/// Where traces and stored counts go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// `(name, unit)` of every end-to-end metric, in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("ops_per_s", "1/s"),
    ("answered_frac", "share"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric, in output order. A layer
/// that a workload's op never reaches reports 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("grid.build_s", "s"),
    ("grid.cells", "count"),
    ("device_grid.upload_s", "s"),
    ("device_grid.h2d_bytes", "bytes"),
    ("batching.estimate_s", "s"),
    ("cell_major.hoist_s", "s"),
    ("batching.kernels_s", "s"),
    ("batching.batches", "count"),
    ("batching.overflow_retries", "count"),
    ("batching.estimate_ratio", "ratio"),
    ("result.table_s", "s"),
    ("result.pairs", "count"),
    ("shard.prelude_s", "s"),
    ("shard.index_build_s", "s"),
    ("shard.execute_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.shards", "count"),
    ("shard.ghost_frac", "share"),
    ("shard.reexecuted", "count"),
    ("session.reuse_frac", "share"),
    ("session.estimate_hit_frac", "share"),
    ("session.uploads", "count"),
    ("serve.submit_s", "s"),
    ("serve.exec_s", "s"),
    ("serve.wait_s", "s"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("serve.retries", "count"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "share"),
];

/// How one op ended.
pub enum Outcome {
    /// The answer equals the host reference pair for pair.
    Answered,
    /// The system answered, but not with the reference table.
    Mismatch(String),
    /// The system refused or failed the op.
    Failed(String),
}

/// One op as the harness sees it.
pub struct Op {
    /// Wall seconds of the timed interval: the public calls and nothing
    /// else (no input preparation, no answer check).
    pub secs: f64,
    pub outcome: Outcome,
}

impl Op {
    pub fn failed(secs: f64, err: impl std::fmt::Display) -> Self {
        Self {
            secs,
            outcome: Outcome::Failed(err.to_string()),
        }
    }
}

/// Compares an answer with its reference.
pub fn check(got: &NeighborTable, reference: &NeighborTable) -> Outcome {
    if got == reference {
        Outcome::Answered
    } else {
        Outcome::Mismatch(format!(
            "{} pairs, reference has {}",
            got.total_pairs(),
            reference.total_pairs()
        ))
    }
}

/// One benchmark workload: its inputs and reference tables are built when
/// it is constructed; the harness then sets it up and runs its ops.
pub trait Workload {
    /// Sets the system up once and returns the wall seconds of the
    /// system's own set-up calls. Called [`SETUP_REPEATS`] times; the
    /// last set-up serves the measured ops.
    fn setup(&mut self) -> Result<f64, String>;
    /// Runs op `i` untraced.
    fn op(&mut self, i: usize, counts: &mut CountCheck) -> Op;
    /// Runs op `i` with spans around each layer's public calls.
    fn traced_op(&mut self, i: usize, counts: &mut CountCheck, tracer: &mut Tracer) -> Op;
    /// Ops in one cycle of the input schedule; a traced run alternates
    /// whole cycles of untraced and traced ops so both see every input.
    fn cycle(&self) -> usize {
        1
    }
    /// A line about the run for standard error (empty for none).
    fn summary(&self) -> String {
        String::new()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <join-syn6d|shard-syn4d|serve-2d> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("bad value {value:?} for {flag}"))
    }
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse(&flag, &value)?,
            "--seconds" => args.seconds = parse(&flag, &value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// What a measured window produced.
struct Window {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    attempted: usize,
    answered: usize,
    mismatches: Vec<String>,
    errors: Vec<String>,
}

fn run_window(
    w: &mut dyn Workload,
    args: &Args,
    counts: &mut CountCheck,
    tracer: &mut Tracer,
) -> Window {
    let mut win = Window {
        untraced: Vec::new(),
        traced: Vec::new(),
        attempted: 0,
        answered: 0,
        mismatches: Vec::new(),
        errors: Vec::new(),
    };
    let start = Instant::now();
    let cycle = w.cycle();
    let mut i = 0;
    // A traced run needs whole cycles of both kinds.
    let min_ops = if args.trace {
        MIN_OPS.max(2 * cycle)
    } else {
        MIN_OPS
    };
    while i < min_ops || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && (i / cycle) % 2 == 1;
        let op = if traced {
            w.traced_op(i, counts, tracer)
        } else {
            w.op(i, counts)
        };
        win.attempted += 1;
        if traced {
            win.traced.push(op.secs);
        } else {
            win.untraced.push(op.secs);
        }
        match op.outcome {
            Outcome::Answered => win.answered += 1,
            Outcome::Mismatch(m) => win.mismatches.push(format!("op {i}: {m}")),
            Outcome::Failed(e) => win.errors.push(format!("op {i}: {e}")),
        }
        i += 1;
    }
    win
}

/// What a run reports on the last line of standard output.
struct Report {
    /// No answer differed from its reference.
    correct: bool,
    attempted: usize,
    /// Ops not answered with the reference table.
    failed: usize,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    /// The result line: `metrics` holds `units`' metrics, in order.
    fn json(&self, units: &[(&str, &str)]) -> Json {
        let metrics = units.iter().fold(Json::obj(), |m, (name, unit)| {
            m.field(
                name,
                Json::obj()
                    .field("value", self.metrics[*name])
                    .field("unit", *unit),
            )
        });
        Json::obj()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let t_prep = Instant::now();
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "join-syn6d" => Box::new(join_syn6d::JoinSyn6d::prepare(args.seed)?),
        "shard-syn4d" => Box::new(shard_syn4d::ShardSyn4d::prepare(args.seed)?),
        "serve-2d" => Box::new(serve_2d::Serve2d::prepare(args.seed)?),
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    // What the benchmark holds itself — inputs and reference tables —
    // is not the system's memory.
    let bench_bytes = heap::live();
    eprintln!(
        "perfbench {}: inputs and references ready in {:.2} s",
        args.workload,
        t_prep.elapsed().as_secs_f64()
    );

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        setups.push(workload.setup()?);
    }

    let mut counts = CountCheck::default();
    let mut tracer = Tracer::new();
    heap::reset_peak();
    let win = run_window(workload.as_mut(), args, &mut counts, &mut tracer);
    let peak_mb = heap::peak().saturating_sub(bench_bytes) as f64 / MB;
    let summary = workload.summary();
    drop(workload);

    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    counts.compare_and_store(&out_dir.join(format!("{stem}-counts.txt")))?;

    let mut metrics = BTreeMap::new();
    if args.trace {
        let mut layers = tracer.layer_metrics();
        let untraced_p50 = measure::median(&win.untraced);
        layers.insert(
            "trace.overhead_frac".into(),
            measure::median(&win.traced) / untraced_p50 - 1.0,
        );
        if let Some(k) = layers
            .keys()
            .find(|k| !PER_LAYER.iter().any(|(n, _)| n == k))
        {
            unreachable!("span or value {k} is not in PER_LAYER");
        }
        for (name, _) in PER_LAYER {
            metrics.insert(name.to_string(), layers.get(name).copied().unwrap_or(0.0));
        }
        let path = out_dir.join(format!("{stem}-trace.json"));
        std::fs::write(&path, tracer.to_json().render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    } else {
        let ops = &win.untraced;
        let busy: f64 = ops.iter().sum();
        metrics.insert("op_p50_s".into(), measure::median(ops));
        metrics.insert("op_p90_s".into(), measure::quantile(ops, 0.9));
        metrics.insert("ops_per_s".into(), win.answered as f64 / busy);
        metrics.insert(
            "answered_frac".into(),
            win.answered as f64 / win.attempted as f64,
        );
        metrics.insert("peak_heap_mb".into(), peak_mb);
        metrics.insert("setup_s".into(), measure::median(&setups));
    }

    eprintln!(
        "perfbench {} seed {}: {} ops ({} traced), {} answered, setups {:?} s",
        args.workload,
        args.seed,
        win.attempted,
        win.traced.len(),
        win.answered,
        setups
    );
    eprintln!("perfbench: op seconds {:?}", win.untraced);
    if !summary.is_empty() {
        eprintln!("perfbench: {summary}");
    }
    for (name, v) in &metrics {
        eprintln!("  {name:<28} {v:.6}");
    }
    for d in &counts.drift {
        eprintln!("perfbench: count drift: {d}");
    }
    for e in win.errors.iter().chain(&win.mismatches) {
        eprintln!("perfbench: {e}");
    }
    Ok(Report {
        correct: win.mismatches.is_empty(),
        attempted: win.attempted,
        failed: win.attempted - win.answered,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.json(units).render());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
