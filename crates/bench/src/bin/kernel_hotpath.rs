//! Hot-path microbench: the per-thread Algorithm 1 kernel vs the
//! cell-major path (reordered layout + per-cell neighbor hoisting +
//! batched result reservation).
//!
//! Runs both paths over surrogates of the paper's 2M-point tier (uniform
//! Syn-2D and the SDSS galaxy surrogate) and a uniform 6-D tier, where the
//! hoist walks `3^5` runs per cell, asserting pair-for-pair identical
//! tables, and reports per path:
//!
//! * **wall** — host wall time of the join kernels (estimation excluded),
//! * **modeled** — the same kernels priced from their counted traced
//!   bytes (`DeviceSpec::kernel_time`): identical on every run,
//! * **hoist wall / hoist modeled** — the cell-major hoisting precompute
//!   on both clocks (the per-thread path has none),
//! * **speedup** — the per-thread kernels over the cell-major kernels plus
//!   the hoist, on each clock,
//! * **L1 hit** — the cache simulator's hit rate for one profiled launch
//!   of the join kernel (the paper's Table II methodology).
//!
//! Every table is also written to `bench_results/kernel_hotpath.json`, a
//! local file that `.gitignore` keeps out of the repository. The run
//! *asserts* the acceptance bars: the cell-major path (kernels plus
//! hoist) is never slower on modeled time; on syn-6D the hoist's modeled
//! time is at most [`HOIST_BAR`] of the join kernels'; and (full runs)
//! the cell-major path is ≥ 1.3× faster in wall-clock on the syn-2M
//! surrogate.
//!
//! Note: `--trials` is floored at 3 — the asserted wall-clock ratio is
//! too noisy at best-of-1 (the modeled columns are the same every trial).

use grid_join::cell_major::{CellMajorPlan, CellMajorSelfJoinKernel};
use grid_join::kernels::SelfJoinKernel;
use grid_join::{DeviceGrid, GpuSelfJoin, GridIndex, HotPath, Pair, SelfJoinConfig};
use sim_gpu::append::AppendBuffer;
use sim_gpu::{Device, DeviceSpec, LaunchConfig, ProfiledLaunch};
use sj_bench::cli::Args;
use sj_bench::eps_for_selectivity;
use sj_bench::table::{emit_table, fmt_secs, fmt_speedup};
use sj_datasets::{sdss, synthetic, Dataset};
use std::time::Duration;

/// The syn-6D hoist's modeled time may be at most this fraction of the
/// join kernels' modeled time. The hoist is priced from its traced bytes,
/// so the bar is deterministic.
const HOIST_BAR: f64 = 0.25;

struct PathRun {
    wall: Duration,
    modeled: Duration,
    hoist_wall: Duration,
    hoist_modeled: Duration,
    pairs: usize,
    table: grid_join::NeighborTable,
}

impl PathRun {
    fn total_wall(&self) -> Duration {
        self.wall + self.hoist_wall
    }

    fn total_modeled(&self) -> Duration {
        self.modeled + self.hoist_modeled
    }
}

/// Best-of-`trials` (by kernels plus hoist wall) batched join on a
/// prebuilt grid.
fn run_path(data: &Dataset, grid: &GridIndex, path: HotPath, trials: usize) -> PathRun {
    let mut best: Option<PathRun> = None;
    for _ in 0..trials {
        let join = GpuSelfJoin::default_device().with_config(SelfJoinConfig {
            hot_path: path,
            ..SelfJoinConfig::default()
        });
        let out = join.run_on_grid(data, grid).expect("join failed");
        let b = &out.report.batching;
        let run = PathRun {
            wall: b.kernel_time,
            modeled: b.modeled_kernel_time,
            hoist_wall: b.hoist_time,
            hoist_modeled: b.modeled_hoist_time,
            pairs: out.table.total_pairs(),
            table: out.table,
        };
        if best
            .as_ref()
            .is_none_or(|p| run.total_wall() < p.total_wall())
        {
            best = Some(run);
        }
    }
    best.expect("at least one trial")
}

/// L1 hit rate of one profiled launch of the path's join kernel.
fn l1_hit_rate(data: &Dataset, grid: &GridIndex, path: HotPath, result_capacity: usize) -> f64 {
    let device = Device::new(DeviceSpec::titan_x_pascal());
    let dg = DeviceGrid::upload(&device, data, grid).expect("upload");
    let results = AppendBuffer::<Pair>::new(device.pool(), result_capacity).expect("buffer");
    let metrics = match path {
        HotPath::PerThread => {
            let kernel = SelfJoinKernel {
                grid: &dg,
                eps_sq: dg.epsilon * dg.epsilon,
                results: &results,
                query_offset: 0,
                query_count: data.len(),
                unicomp: true,
                cell_order: false,
                ownership: None,
            };
            ProfiledLaunch::run(&device, LaunchConfig::default(), data.len(), &kernel).1
        }
        HotPath::CellMajor => {
            let (plan, _) = CellMajorPlan::build(&device, &dg, true, LaunchConfig::default())
                .expect("plan build");
            let kernel = CellMajorSelfJoinKernel {
                grid: &dg,
                eps_sq: dg.epsilon * dg.epsilon,
                plan: &plan,
                results: &results,
                slot_offset: 0,
                slot_count: data.len(),
                ownership: None,
            };
            ProfiledLaunch::run(&device, LaunchConfig::default(), data.len(), &kernel).1
        }
    };
    assert!(!results.overflowed(), "profiling buffer overflow");
    metrics.hit_rate()
}

fn main() {
    let mut args = Args::parse();
    // This binary *is* the perf tracker: always persist its tables.
    args.json = true;

    // Surrogates of the paper's 2M-point tier. The full run uses a floor
    // high enough that the wall-clock ratio is stable; quick smoke runs
    // shrink it.
    let floor = if args.quick { 8_000 } else { 30_000 };
    let n = ((2_000_000.0 * args.scale) as usize).clamp(floor, 2_000_000);
    let workloads: Vec<(&str, Dataset)> = vec![
        ("syn-2M", synthetic::uniform(2, n, 42)),
        ("SDSS-2M", sdss::sdss2d(n, 305)),
        ("syn-6D", synthetic::uniform(6, n, 44)),
    ];
    let trials = args.trials.max(3);

    let mut syn_wall_speedup = f64::NAN;
    for (name, data) in &workloads {
        let eps = eps_for_selectivity(data, 24.0);
        let grid = GridIndex::build(data, eps).expect("grid build");

        let per_thread = run_path(data, &grid, HotPath::PerThread, trials);
        let cell_major = run_path(data, &grid, HotPath::CellMajor, trials);
        assert_eq!(
            cell_major.table, per_thread.table,
            "{name}: cell-major and per-thread paths disagree"
        );

        // Profiled L1 hit rates (Table II methodology) on the true access
        // stream of each path's join kernel.
        let capacity = (per_thread.pairs * 2).max(1 << 16);
        let pt_hit = l1_hit_rate(data, &grid, HotPath::PerThread, capacity);
        let cm_hit = l1_hit_rate(data, &grid, HotPath::CellMajor, capacity);

        let wall_speedup =
            per_thread.wall.as_secs_f64() / cell_major.total_wall().as_secs_f64().max(1e-12);
        let modeled_speedup =
            per_thread.modeled.as_secs_f64() / cell_major.total_modeled().as_secs_f64().max(1e-12);
        if *name == "syn-2M" {
            syn_wall_speedup = wall_speedup;
        }

        emit_table(
            &args,
            "kernel_hotpath",
            &format!(
                "Hot path: {name} (|D| = {n}, eps = {eps:.4}, selectivity {:.1}, best of {trials})",
                per_thread.pairs as f64 / n as f64
            ),
            &[
                "path",
                "wall",
                "modeled",
                "hoist wall",
                "hoist modeled",
                "speedup (wall)",
                "speedup (modeled)",
                "L1 hit",
                "pairs",
            ],
            &[
                vec![
                    "per-thread".into(),
                    fmt_secs(per_thread.wall.as_secs_f64()),
                    fmt_secs(per_thread.modeled.as_secs_f64()),
                    "-".into(),
                    "-".into(),
                    "1.00x".into(),
                    "1.00x".into(),
                    format!("{pt_hit:.3}"),
                    format!("{}", per_thread.pairs),
                ],
                vec![
                    "cell-major".into(),
                    fmt_secs(cell_major.wall.as_secs_f64()),
                    fmt_secs(cell_major.modeled.as_secs_f64()),
                    fmt_secs(cell_major.hoist_wall.as_secs_f64()),
                    fmt_secs(cell_major.hoist_modeled.as_secs_f64()),
                    fmt_speedup(wall_speedup),
                    fmt_speedup(modeled_speedup),
                    format!("{cm_hit:.3}"),
                    format!("{}", cell_major.pairs),
                ],
            ],
        );

        // Smoke bar (CI runs --quick): the cell-major path, hoist
        // included, is never slower on modeled time.
        assert!(
            cell_major.total_modeled() <= per_thread.modeled,
            "{name}: cell-major modeled time regressed ({:?} vs {:?})",
            cell_major.total_modeled(),
            per_thread.modeled
        );

        // Hoist bar: in 6-D every cell walks 3^5 runs of B; the walk must
        // keep the hoist a small fraction of the join it serves.
        if *name == "syn-6D" {
            let ratio = cell_major.hoist_modeled.as_secs_f64()
                / cell_major.modeled.as_secs_f64().max(1e-12);
            println!("\nsyn-6D hoist / join kernels (modeled): {ratio:.3} (bar: <= {HOIST_BAR})");
            assert!(
                ratio <= HOIST_BAR,
                "syn-6D hoist costs {ratio:.3}x the join kernels' modeled time (bar: {HOIST_BAR})"
            );
        }
    }

    println!(
        "\nsyn-2M wall-clock speedup (cell-major vs per-thread): {} (acceptance bar: 1.30x)",
        fmt_speedup(syn_wall_speedup)
    );
    if !args.quick {
        assert!(
            syn_wall_speedup >= 1.3,
            "hot-path speedup regressed: {syn_wall_speedup:.2}x on syn-2M (need >= 1.3x)"
        );
    }
}
