//! Cross-validation sweep — the release gate.
//!
//! Two layers, both over the paper's Table I workloads (scaled):
//!
//! 1. **Count validation**: the five evaluated algorithms (GPU brute
//!    force, CPU-RTREE, Super-EGO, GPU-SJ, GPU-SJ+UNICOMP) must report
//!    identical directed-pair counts (`run_algorithms` panics on any
//!    mismatch).
//! 2. **Exact-table validation**: the sharded multi-device engine must be
//!    *pair-for-pair* identical to single-device GPU-SJ, the parallel
//!    host join and the R-tree — and its merged table must hold zero
//!    duplicate pairs (the halo-ownership invariant). The per-thread
//!    kernel path (with and without UNICOMP) must likewise be
//!    pair-for-pair identical to the default cell-major hot path.
//!
//! Exits non-zero on any disagreement, so CI can gate on this binary.

use grid_join::{GpuSelfJoin, GridIndex, HotPath};
use rtree::rtree_self_join;
use sj_bench::cli::Args;
use sj_bench::runner::{run_algorithms, Algo};
use sj_bench::table::emit_table;
use sj_datasets::catalog::Catalog;
use sj_shard::ShardedSelfJoin;

fn main() {
    let args = Args::parse();
    let catalog = Catalog::new();
    let mut rows = Vec::new();
    for (i, spec) in catalog.specs().iter().enumerate() {
        let data = spec.generate(args.scale);
        let eps = spec.scaled_epsilons(args.scale)[2]; // mid-sweep ε
        eprintln!(
            "  validating {} ({} pts, eps {eps:.4})…",
            spec.name,
            data.len()
        );

        // Layer 1: five-way count agreement (panics on mismatch).
        let ms = run_algorithms(&data, eps, &Algo::ALL, 1);

        // Layer 2: exact neighbour-table agreement, sharded included.
        // Device count varies across cases to exercise 2/3/4-device pools.
        let devices = 2 + i % 3;
        let single = GpuSelfJoin::default_device()
            .run(&data, eps)
            .expect("single-device GPU-SJ failed");
        let sharded = ShardedSelfJoin::titan_x(devices)
            .run(&data, eps)
            .expect("sharded engine failed");
        assert_eq!(
            sharded.table, single.table,
            "{}: sharded (x{devices}) != single-device GPU-SJ",
            spec.name
        );
        assert_eq!(
            sharded.report.duplicates_merged, 0,
            "{}: sharded merge found duplicates — ownership violated",
            spec.name
        );
        // Hot-path cross-check: `single` ran the default cell-major path;
        // the per-thread path must be pair-for-pair identical in both
        // traversal modes.
        for unicomp in [true, false] {
            let per_thread = GpuSelfJoin::default_device()
                .unicomp(unicomp)
                .hot_path(HotPath::PerThread)
                .run(&data, eps)
                .expect("per-thread GPU-SJ failed");
            assert_eq!(
                per_thread.table, single.table,
                "{}: per-thread (unicomp={unicomp}) != cell-major hot path",
                spec.name
            );
        }
        let grid = GridIndex::build(&data, eps).expect("grid build failed");
        let host = grid_join::host_self_join_parallel(&data, &grid);
        assert_eq!(host, single.table, "{}: host parallel != GPU-SJ", spec.name);
        let (rt, _) = rtree_self_join(&data, eps);
        assert_eq!(rt, single.table, "{}: R-tree != GPU-SJ", spec.name);
        assert_eq!(ms[0].pairs as usize, single.table.total_pairs());

        rows.push(vec![
            spec.name.to_string(),
            format!("{}", data.len()),
            format!("{eps:.4}"),
            format!("{}", ms[0].pairs),
            format!("x{devices}, {} shards", sharded.report.shards.len()),
            "agree".to_string(),
        ]);
    }
    emit_table(
        &args,
        "validate",
        "Cross-validation: brute / R-tree / Super-EGO / GPU / GPU+unicomp / sharded / host",
        &[
            "case",
            "|D|",
            "eps",
            "directed pairs",
            "sharded run",
            "status",
        ],
        &rows,
    );
    println!(
        "\nAll {} Table I workloads validated: counts agree across the five algorithms,\n\
         the per-thread kernels (±UNICOMP) are pair-for-pair identical to the cell-major\n\
         hot path, and the sharded engine is pair-for-pair identical to GPU-SJ, the\n\
         parallel host join and the R-tree (zero merge duplicates).",
        rows.len()
    );
}
