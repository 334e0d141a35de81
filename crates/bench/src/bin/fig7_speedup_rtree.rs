//! Figure 7 — speedup of GPU-SJ (with UNICOMP) over CPU-RTREE for every
//! dataset and ε of Figures 4–6, plus the overall average (the paper
//! reports 26.9× on its hardware; the shape to reproduce is: smallest
//! gains on the small low-D workloads, largest on 4–6-D where R-tree
//! index search degrades fastest).

use sj_bench::cli::Args;
use sj_bench::runner::Algo;
use sj_bench::sweep::{seconds_of, sweep_dataset, BrutePolicy};
use sj_bench::table::{emit_table, fmt_speedup, mean};
use sj_datasets::catalog::Catalog;

fn main() {
    let args = Args::parse();
    let catalog = Catalog::new();
    let algos = [Algo::CpuRtree, Algo::GpuUnicomp];

    let mut rows = Vec::new();
    let mut all_speedups = Vec::new();
    let mut per_dim: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for spec in catalog.specs() {
        let points = sweep_dataset(spec, &args, &algos, BrutePolicy::Skip);
        for p in &points {
            let rtree = seconds_of(p, Algo::CpuRtree).expect("measured");
            let gpu = seconds_of(p, Algo::GpuUnicomp).expect("measured");
            let speedup = rtree / gpu.max(1e-12);
            all_speedups.push(speedup);
            per_dim.entry(spec.dim).or_default().push(speedup);
            rows.push(vec![
                spec.name.to_string(),
                format!("{:.3}", p.paper_eps),
                fmt_speedup(speedup),
            ]);
        }
    }
    emit_table(
        &args,
        "fig7_speedup_rtree",
        &format!(
            "Figure 7: speedup of GPU-SJ (unicomp) over CPU-RTREE (scale {})",
            args.scale
        ),
        &["dataset", "eps", "speedup"],
        &rows,
    );
    let dim_rows: Vec<Vec<String>> = per_dim
        .iter()
        .map(|(d, v)| vec![format!("{d}-D"), fmt_speedup(mean(v))])
        .collect();
    emit_table(
        &args,
        "fig7_speedup_rtree",
        "Average speedup by dimensionality",
        &["n", "avg speedup"],
        &dim_rows,
    );
    println!(
        "\nAverage speedup over CPU-RTREE across all datasets: {} (paper: 26.9x on a TITAN X vs 1 CPU core)",
        fmt_speedup(mean(&all_speedups))
    );
    println!(
        "Expected shape: speedup grows with dimensionality; smallest on the small 2-D workloads."
    );
}
