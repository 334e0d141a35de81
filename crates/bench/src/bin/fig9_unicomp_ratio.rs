//! Figure 9 — impact of UNICOMP: ratio of GPU-SJ response times *without*
//! over *with* the optimization, per dataset and ε, in the paper's three
//! panels (real-world, Syn-2M, Syn-10M).
//!
//! Expected shape: ratios ≳ 1 everywhere (UNICOMP is safe), within ~1.5
//! on 2-D real-world data, and ≥ 2 on the 5-/6-D synthetic datasets where
//! the paper measures improved cache utilization (Table II).

use sj_bench::cli::Args;
use sj_bench::runner::Algo;
use sj_bench::sweep::{seconds_of, sweep_dataset, BrutePolicy};
use sj_bench::table::{emit_table, mean};
use sj_datasets::catalog::{Catalog, DatasetSpec};

fn panel(title: &str, specs: &[&DatasetSpec], args: &Args) {
    let algos = [Algo::Gpu, Algo::GpuUnicomp];
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for spec in specs {
        let points = sweep_dataset(spec, args, &algos, BrutePolicy::Skip);
        for p in &points {
            let without = seconds_of(p, Algo::Gpu).expect("measured");
            let with = seconds_of(p, Algo::GpuUnicomp).expect("measured");
            let ratio = without / with.max(1e-12);
            ratios.push(ratio);
            rows.push(vec![
                spec.name.to_string(),
                format!("{:.3}", p.paper_eps),
                format!("{ratio:.2}"),
            ]);
        }
    }
    emit_table(
        args,
        "fig9_unicomp_ratio",
        title,
        &["dataset", "eps", "ratio (no-unicomp / unicomp)"],
        &rows,
    );
    println!("panel average ratio: {:.2}", mean(&ratios));
}

fn main() {
    let args = Args::parse();
    let catalog = Catalog::new();

    let real: Vec<&DatasetSpec> = catalog.real_world().collect();
    panel(
        &format!(
            "Figure 9a: UNICOMP ratio, real-world (scale {})",
            args.scale
        ),
        &real,
        &args,
    );
    let syn2m: Vec<&DatasetSpec> = catalog.synthetic_tier("2M").collect();
    panel("Figure 9b: UNICOMP ratio, Syn- 2M tier", &syn2m, &args);
    let syn10m: Vec<&DatasetSpec> = catalog.synthetic_tier("10M").collect();
    panel("Figure 9c: UNICOMP ratio, Syn- 10M tier", &syn10m, &args);
}
