//! Device scaling — the sharded engine's headline figure.
//!
//! Runs the sharded multi-device self-join on 1/2/4/8/16/32 simulated
//! TITAN X devices over surrogates of the paper's 2M-point workloads
//! (uniform Syn-2D, the SDSS galaxy surrogate, and 4-D/6-D uniform tiers
//! at reduced counts) and reports, per device count: the shard count the
//! modeled-response chooser picked, the ghost fraction and ghost upload
//! bytes of the kd partition it executed, the modeled response time and
//! the speedup over one device. A plain single-device `GpuSelfJoin` row
//! anchors the comparison; a per-phase prelude/stream breakdown table
//! (calibrate / partition / upload / kernel / merge, in seconds) and a
//! per-shard table at the widest count accompany each workload. A full
//! run always writes this figure's JSON (the checked-in
//! `bench_results/scaling_devices.json` is regenerated by re-running the
//! binary); a `--quick` run writes it only with `--json`.
//!
//! Times are the engine's modeled response times (prelude + busiest
//! device stream — see `sj_shard::engine`): with simulated devices
//! time-sharing one host, modeled device time is the quantity that
//! reflects multi-device wall-clock, exactly as the paper's evaluation
//! reports modeled device response times for GPU-SJ. Modeled time is
//! priced from counted bytes, so every figure (the merge column, a host
//! wall time, aside) is a pure function of the workload: one run per
//! device count is the measurement, and a re-run reproduces it exactly.
//!
//! The run *asserts* the subsystem's acceptance bars:
//!
//! * modeled speedup monotonically non-decreasing in device count
//!   through 16 devices (small tolerance) on **every** dataset — 32
//!   devices are reported but exempt: at 400k points the per-device work
//!   is thin enough there that taper is expected;
//! * ≥ 6× at 16 devices on the syn-2M surrogate (full runs; `--quick`
//!   smoke runs only check monotonicity and correctness);
//! * the parallel prelude (fused sample pass + calibration overlapped
//!   with speculative cut builds + materialize fanned across lanes) at
//!   16 devices is cheaper than the 1-device serial prelude on syn-2M —
//!   the tentpole bar for the prelude parallelization;
//! * kd ghost fraction ≤ 25% of owned points at 8 devices on syn-2M —
//!   the figure that motivated replacing the 1-D slab partitioner, whose
//!   thin slabs paid ~59% there (quick runs, which skip the 8-device
//!   point, check ≤ 45% at 16 instead);
//! * the shard-chooser cost audit's geometric-mean projection drift over
//!   the whole run stays within ±50%.
//!
//! `--quick` runs the reduced device set [1, 4, 16] on two workloads and
//! widens the monotonicity tolerance: correctness, a coarse scaling
//! shape, the ghost bar and the audit bar only (the CI smoke
//! configuration).

use grid_join::GpuSelfJoin;
use sj_bench::cli::Args;
use sj_bench::eps_for_selectivity;
use sj_bench::table::{emit_table, fmt_secs, fmt_speedup};
use sj_datasets::{sdss, synthetic, Dataset};
use sj_obs::audit::AuditReport;
use sj_shard::ShardedSelfJoin;

const DEVICE_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// `--quick` smoke subset: keeps the 16-device point (the asserted
/// scaling ceiling) while dropping the interior of the curve.
const QUICK_COUNTS: [usize; 3] = [1, 4, 16];
/// Monotonicity is asserted through this device count; wider points are
/// reported but exempt (400k points across 32 devices is thin enough
/// that taper is the expected shape, not a regression).
const MONOTONIC_THROUGH: usize = 16;
/// Relative tolerance on the monotonic-speedup assertion: adjacent device
/// counts may regress by at most this much before the run fails. Quick
/// smoke runs (smaller workloads, coarser device steps) get the wider
/// allowance; both still catch the order-of-magnitude inversions a real
/// partitioner or scheduler regression produces.
const MONOTONIC_TOLERANCE: f64 = 0.05;
const MONOTONIC_TOLERANCE_QUICK: f64 = 0.30;
/// The chooser audit's acceptance band: the geometric mean of
/// projected/measured stream makespans over the whole run must land in
/// [1/(1+this), 1+this]; the audit's unclamped log-ratio track makes it
/// checkable even if individual samples clamp.
const AUDIT_REL_BOUND: f64 = 0.5;

fn main() {
    let mut args = Args::parse();
    // This figure's JSON is committed to the repository: a full run always
    // exports it, so a plain run regenerates the checked-in file. A
    // `--quick` smoke run leaves it alone unless `--json` is passed.
    args.json |= !args.quick;
    // Surrogates of the paper's 2M-point tier. The scaling experiment
    // needs enough work per shard that it outweighs the fixed per-shard
    // transfer latencies (and enough grid columns per shard for thin
    // halos), so its floor — 400k points, a
    // fifth of the paper's tier — is much higher than the other
    // figures'. The 4-D/6-D tiers run at half/quarter count: per-point
    // join work grows steeply with dimension, so the reduced counts keep
    // total work comparable while still exercising high-dimensional cut
    // trees at 16-32 devices.
    let n = ((2_000_000.0 * args.scale) as usize).clamp(400_000, 2_000_000);
    let workloads: Vec<(&str, Dataset)> = if args.quick {
        vec![
            ("syn-2M", synthetic::uniform(2, n, 42)),
            ("syn-6D", synthetic::uniform(6, n / 4, 44)),
        ]
    } else {
        vec![
            ("syn-2M", synthetic::uniform(2, n, 42)),
            ("SDSS-2M", sdss::sdss2d(n, 305)),
            ("syn-4D", synthetic::uniform(4, n / 2, 43)),
            ("syn-6D", synthetic::uniform(6, n / 4, 44)),
        ]
    };
    let counts: &[usize] = if args.quick {
        &QUICK_COUNTS
    } else {
        &DEVICE_COUNTS
    };

    let mut speedup16_syn = 0.0;
    let mut ghost_frac_syn = f64::NAN;
    let (ghost_at, ghost_bar) = if args.quick { (16, 0.45) } else { (8, 0.25) };
    let mut prelude_ratio_syn = f64::NAN;
    let tolerance = if args.quick {
        MONOTONIC_TOLERANCE_QUICK
    } else {
        MONOTONIC_TOLERANCE
    };
    // The chooser's (projected, measured) pairs of every sharded run:
    // stream makespans, and partition builds.
    let mut stream_pairs = Vec::new();
    let mut partition_pairs = Vec::new();
    for (name, data) in &workloads {
        let eps = eps_for_selectivity(data, 24.0);

        let single = GpuSelfJoin::default_device()
            .run(data, eps)
            .expect("single-device join failed");
        let mut rows = vec![vec![
            "plain GPU-SJ".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            fmt_secs(single.report.modeled_total.as_secs_f64()),
            "-".to_string(),
            format!("{}", single.table.total_pairs()),
        ]];

        let runs: Vec<sj_shard::ShardedOutput> = counts
            .iter()
            .map(|&devices| {
                let out = ShardedSelfJoin::titan_x(devices)
                    .run(data, eps)
                    .expect("sharded join failed");
                assert_eq!(
                    out.table, single.table,
                    "{name}: sharded x{devices} result differs from single-device"
                );
                assert_eq!(out.report.duplicates_merged, 0);
                out
            })
            .collect();
        let base = &runs[0].report;
        for r in runs.iter().map(|out| &out.report) {
            stream_pairs.push((r.projected_stream, r.measured_stream()));
            if let Some(projected) = r.projected_partition {
                partition_pairs.push((projected, r.partition_time - r.sample_time));
            }
        }

        let mut speedups: Vec<(usize, f64)> = Vec::new();
        let mut phase_rows: Vec<Vec<String>> = Vec::new();
        for (&devices, out) in counts.iter().zip(&runs) {
            let modeled = out.report.modeled_total.as_secs_f64();
            let speedup = base.modeled_total.as_secs_f64() / modeled;
            speedups.push((devices, speedup));
            let ghost_frac = out.report.ghost_fraction();
            if *name == "syn-2M" {
                if devices == 16 {
                    speedup16_syn = speedup;
                    prelude_ratio_syn =
                        base.prelude_time.as_secs_f64() / out.report.prelude_time.as_secs_f64();
                }
                if devices == ghost_at {
                    ghost_frac_syn = ghost_frac;
                }
            }
            rows.push(vec![
                format!("sharded x{devices}"),
                format!("{}", out.report.shards.len()),
                format!("{:.1}%", 100.0 * ghost_frac),
                format!(
                    "{:.2} MB",
                    out.report.ghost_h2d_bytes() as f64 / (1024.0 * 1024.0)
                ),
                fmt_secs(modeled),
                fmt_speedup(speedup),
                format!("{}", out.table.total_pairs()),
            ]);
            phase_rows.push(phase_row(devices, &out.report));
            if devices == *counts.last().unwrap() {
                emit_shard_breakdown(&args, name, devices, out);
            }
        }
        emit_table(
            &args,
            "scaling_devices",
            &format!(
                "Device scaling: {name} (|D| = {}, {}-D, eps = {eps:.3}; modeled times)",
                data.len(),
                data.dim(),
            ),
            &[
                "engine",
                "shards",
                "ghosts",
                "ghost upload",
                "modeled time",
                "speedup vs x1",
                "pairs",
            ],
            &rows,
        );
        // Satellite figure: where the modeled response goes, per device
        // count. Prelude phases (sample/calibrate/cuts/choose/
        // materialize) shrink as lanes are added — calibration overlaps
        // the speculative cut builds from 2 devices up — while upload/
        // kernel spread across devices and merge stays host-side. All
        // cells in seconds so the JSON export carries numbers, not
        // strings.
        emit_table(
            &args,
            "scaling_devices",
            &format!("Prelude/stream phase breakdown: {name} (seconds; merge is host wall)"),
            &[
                "devices",
                "sample",
                "calibrate",
                "cuts",
                "choose",
                "partition",
                "prelude",
                "upload",
                "kernel",
                "merge",
                "stream",
                "total",
            ],
            &phase_rows,
        );

        // Acceptance bar: more devices never make the modeled response
        // time worse (beyond a small tolerance) through 16 devices, on
        // every dataset.
        for w in speedups.windows(2) {
            let ((d0, s0), (d1, s1)) = (w[0], w[1]);
            if d1 > MONOTONIC_THROUGH {
                continue;
            }
            assert!(
                s1 >= s0 * (1.0 - tolerance),
                "{name}: modeled speedup not monotonic in device count: \
                 {s0:.2}x at {d0} devices but {s1:.2}x at {d1}"
            );
        }
    }

    println!(
        "\nsyn-2M speedup at 16 devices: {} (acceptance bar: 6.00x)",
        fmt_speedup(speedup16_syn)
    );
    println!(
        "syn-2M prelude at 1 device / prelude at 16 devices: {} (bar: > 1.00x)",
        fmt_speedup(prelude_ratio_syn)
    );
    println!(
        "syn-2M ghost fraction at {ghost_at} devices: {:.1}% (acceptance bar: <= {:.0}%; \
         1-D slabs paid ~59% at 8)",
        100.0 * ghost_frac_syn,
        100.0 * ghost_bar
    );
    if !args.quick {
        assert!(
            speedup16_syn >= 6.0,
            "device scaling regressed: {speedup16_syn:.2}x at 16 devices on syn-2M (need >= 6.0x)"
        );
        assert!(
            prelude_ratio_syn > 1.0,
            "parallel prelude regressed: 16-device prelude is not cheaper than the 1-device \
             serial prelude on syn-2M (ratio {prelude_ratio_syn:.2}x, need > 1.0x)"
        );
    }
    assert!(
        ghost_frac_syn <= ghost_bar,
        "kd partitioner ghost overhead regressed: {:.1}% at {ghost_at} devices on syn-2M \
         (need <= {:.0}%)",
        100.0 * ghost_frac_syn,
        100.0 * ghost_bar
    );
    // Calibration audit: every run's projected LPT makespan against its
    // measured busiest-stream makespan, plus the chooser's projected
    // partition-build cost against the measured build. The
    // geometric-mean drift (unclamped log ratio) is the asserted
    // quantity: the chooser's predicted counts must hold its projections
    // within ±50% across the whole run.
    let chooser = AuditReport::of("shard_chooser", stream_pairs)
        .expect("chooser audit must have samples after a scaling run");
    let partition = AuditReport::of("shard_partition", partition_pairs)
        .expect("every run chose its shard count");
    println!("\n{}", chooser.summary());
    println!("\n{}", partition.summary());
    let geo = chooser.geo_mean_ratio();
    assert!(
        (1.0 / (1.0 + AUDIT_REL_BOUND)..=1.0 + AUDIT_REL_BOUND).contains(&geo),
        "shard-chooser projections drifted: geometric mean projected/measured = {geo:.3} \
         (need within ±{:.0}%)",
        100.0 * AUDIT_REL_BOUND
    );

    println!("\nExpected shape: near-linear scaling at 2-8 devices, tapering toward 16-32 as");
    println!("per-device work thins; the parallel prelude keeps the serial fraction shrinking");
    println!("with device count instead of growing into an Amdahl ceiling.");
}

/// One phase-breakdown row (all cells in seconds; see the table's
/// emitting comment).
fn phase_row(devices: usize, r: &sj_shard::ShardedReport) -> Vec<String> {
    let secs = |d: std::time::Duration| format!("{:.6}", d.as_secs_f64());
    let upload: std::time::Duration = r.shards.iter().map(|s| s.modeled_upload).sum();
    let kernel: std::time::Duration = r.shards.iter().map(|s| s.modeled_kernel).sum();
    vec![
        format!("{devices}"),
        secs(r.sample_time),
        secs(r.calibrate_time),
        secs(r.cut_time),
        secs(r.choose_time),
        secs(r.partition_time),
        secs(r.prelude_time),
        secs(upload),
        secs(kernel),
        secs(r.merge_time),
        secs(r.measured_stream()),
        secs(r.modeled_total),
    ]
}

/// The per-shard breakdown of the widest run: where every shard landed,
/// what it cost, and what its halo replication amounted to — the numbers
/// behind the aggregate ghost column.
fn emit_shard_breakdown(args: &Args, name: &str, devices: usize, out: &sj_shard::ShardedOutput) {
    let rows: Vec<Vec<String>> = out
        .report
        .shards
        .iter()
        .map(|s| {
            vec![
                format!("{}", s.shard),
                format!("{}", s.device),
                format!("{}", s.owned),
                format!("{}", s.ghosts),
                format!("{:.1}%", 100.0 * s.ghosts as f64 / (s.owned.max(1)) as f64),
                format!("{:.1} KB", s.ghost_h2d_bytes as f64 / 1024.0),
                format!("{}", s.actual_pairs),
                fmt_secs(s.modeled.as_secs_f64()),
            ]
        })
        .collect();
    emit_table(
        args,
        "scaling_devices",
        &format!(
            "Per-shard breakdown: {name} at {devices} devices ({} shards, cut dims {:?})",
            out.report.shards.len(),
            out.report.cut_dims
        ),
        &[
            "shard",
            "device",
            "owned",
            "ghosts",
            "ghost %",
            "ghost upload",
            "pairs",
            "modeled",
        ],
        &rows,
    );
}
