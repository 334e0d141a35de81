//! Figure 8 — speedup of GPU-SJ (with UNICOMP) over the multi-threaded
//! SUPEREGO for every dataset and ε (paper averages: 2.38× overall, ~2×
//! on the real-world datasets, with only a handful of losses).

use sj_bench::cli::Args;
use sj_bench::runner::Algo;
use sj_bench::sweep::{seconds_of, sweep_dataset, BrutePolicy};
use sj_bench::table::{emit_table, fmt_speedup, mean};
use sj_datasets::catalog::{Catalog, Family};

fn main() {
    let args = Args::parse();
    let catalog = Catalog::new();
    let algos = [Algo::SuperEgo, Algo::GpuUnicomp];

    let mut rows = Vec::new();
    let mut all = Vec::new();
    let mut real = Vec::new();
    let mut losses = 0usize;
    for spec in catalog.specs() {
        let points = sweep_dataset(spec, &args, &algos, BrutePolicy::Skip);
        for p in &points {
            let ego = seconds_of(p, Algo::SuperEgo).expect("measured");
            let gpu = seconds_of(p, Algo::GpuUnicomp).expect("measured");
            let speedup = ego / gpu.max(1e-12);
            all.push(speedup);
            if spec.family != Family::Synthetic {
                real.push(speedup);
            }
            if speedup < 1.0 {
                losses += 1;
            }
            rows.push(vec![
                spec.name.to_string(),
                format!("{:.3}", p.paper_eps),
                fmt_speedup(speedup),
            ]);
        }
    }
    emit_table(
        &args,
        "fig8_speedup_superego",
        &format!(
            "Figure 8: speedup of GPU-SJ (unicomp) over SuperEGO (scale {})",
            args.scale
        ),
        &["dataset", "eps", "speedup"],
        &rows,
    );
    println!(
        "\nAverage speedup: all datasets {}, real-world {} (paper: 2.38x / ~2x)",
        fmt_speedup(mean(&all)),
        fmt_speedup(mean(&real))
    );
    // The paper runs Super-EGO with 32 threads; this host has fewer. Under
    // a perfect-scaling assumption, a 32-thread Super-EGO would be
    // (32 / host_threads)x faster, giving the normalized comparison below.
    let host_threads = rayon::current_num_threads().max(1) as f64;
    let norm = host_threads / 32.0;
    println!(
        "Normalized to the paper's 32 Super-EGO threads (host has {}): all {}, real-world {}",
        host_threads,
        fmt_speedup(mean(&all) * norm),
        fmt_speedup(mean(&real) * norm)
    );
    println!(
        "Measurements where SuperEGO wins (speedup < 1): {losses} of {} (paper: 6)",
        all.len()
    );
    println!(
        "Expected shape: SuperEGO fares worst on uniform synthetic data (no reordering benefit)."
    );
}
